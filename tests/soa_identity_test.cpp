// Golden full-state digests of seeded deployments. Each variant runs one
// seeded SndDeployment, serializes every agent's tentative and functional
// neighbor lists, evidence buffer (issuer order), record version and replay
// rejects plus the network's trace summary, and compares the SHA-256 of
// that snapshot with a committed constant. Any change to a protocol
// decision, an RNG draw or container iteration order moves the digest.
//
// How the constants were recorded: at commit 9dc311d, built RelWithDebInfo
// with GCC 12.2.0 (Debian 12.2.0-14) on x86-64. That commit still had two
// environment switches, one selecting the seed std::map/std::set state
// layout and one selecting the uncached derive-per-message MAC path; all
// four settings of the two switches gave the same digest for every variant.
// The lossy variant draws log-normal shadowing, so its constant also
// depends on libm's log, cos, pow and log10; the others use only IEEE
// arithmetic and sqrt.
#include <gtest/gtest.h>

#include <string>

#include "core/deployment_driver.h"
#include "crypto/sha256.h"

namespace snd::core {
namespace {

struct Variant {
  DeploymentConfig config;
  std::size_t first_round = 14;
  std::size_t second_round = 0;
  bool auto_update = false;
};

void append_ids(std::string& out, const char* label, const topology::NeighborList& ids) {
  out += label;
  for (const NodeId id : ids) out += " " + std::to_string(id);
}

/// Runs the variant and returns the SHA-256 (hex) of its full-state snapshot.
std::string state_digest(const Variant& variant) {
  SndDeployment deployment(variant.config);
  deployment.deploy_round(variant.first_round);
  deployment.run();
  if (variant.second_round > 0) {
    if (variant.auto_update) {
      for (const SndNode* agent : deployment.agents()) {
        deployment.agent(agent->identity())->set_auto_update(true);
      }
    }
    deployment.deploy_round(variant.second_round);
    deployment.run();
  }
  std::string snapshot;
  for (const SndNode* agent : deployment.agents()) {
    snapshot += "node " + std::to_string(agent->identity());
    append_ids(snapshot, " | tentative", agent->tentative_neighbors());
    append_ids(snapshot, " | functional", agent->functional_neighbors());
    snapshot += " | evidence";
    for (const auto& [issuer, digest] : agent->evidence_buffer()) {
      snapshot += " " + std::to_string(issuer) + ":" + digest.hex();
    }
    snapshot += " | version " + std::to_string(agent->record_version());
    snapshot += " | replay_rejects " + std::to_string(agent->replay_rejects()) + "\n";
  }
  snapshot += deployment.network().trace_summary().to_json();
  return crypto::Sha256::hash(snapshot).hex();
}

Variant base_variant(std::uint64_t seed) {
  Variant variant;
  variant.config.field = {{0.0, 0.0}, {140.0, 140.0}};
  variant.config.radio_range = 50.0;
  variant.config.protocol.threshold_t = 3;
  variant.config.seed = seed;
  return variant;
}

Variant lossy_variant() {
  // Loss consumes one RNG draw per delivery candidate, shadowing more per
  // link test: any container-iteration-order change desynchronizes the
  // stream and diverges the run.
  Variant variant = base_variant(21);
  variant.config.channel_loss = 0.25;
  variant.config.log_normal_shadowing = true;
  variant.config.shadowing_sigma_db = 4.0;
  return variant;
}

Variant update_variant() {
  // Incremental deployment with the §4.4 extension: evidence buffers fill,
  // update requests fire (auto_update), record versions advance. Exercises
  // EvidenceMap iteration (request_update serializes the buffer in issuer
  // order) and the replay table under two-round traffic.
  Variant variant = base_variant(31);
  variant.config.protocol.max_updates = 2;
  variant.second_round = 6;
  variant.auto_update = true;
  return variant;
}

Variant erasure_variant() {
  Variant variant = base_variant(41);
  variant.config.protocol.early_erasure = true;
  variant.config.half_duplex = true;
  return variant;
}

TEST(StateDigestGoldenTest, CleanDeployment) {
  EXPECT_EQ(state_digest(base_variant(11)),
            "be833bbbf7388bebb0715aa201f4809d73c479d90a165e58d2e24170f1e2bda9");
  EXPECT_EQ(state_digest(base_variant(12)),
            "dbe7c7505c27c9335e8d438a95a93160b6208e4cde9f150afc4552e1d27cf490");
}

TEST(StateDigestGoldenTest, LossyShadowedChannel) {
  EXPECT_EQ(state_digest(lossy_variant()),
            "6e5b918692a08fc3e99aba456cf1495c86aa3409221311d9772e428adc5aa542");
}

TEST(StateDigestGoldenTest, UpdateExtension) {
  EXPECT_EQ(state_digest(update_variant()),
            "165844b246c5ef53be4f119193fc33bef1970c79de87f2d3547dfcf98f1a14df");
}

TEST(StateDigestGoldenTest, EarlyErasureHalfDuplex) {
  EXPECT_EQ(state_digest(erasure_variant()),
            "b6d653c9c0286bb37e476411bbcf6ff7df021d1930364f0ff2dabbc3cdc81d0d");
}

}  // namespace
}  // namespace snd::core
