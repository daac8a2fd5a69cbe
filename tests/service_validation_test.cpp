#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "core/commitment.h"
#include "crypto/key.h"
#include "forced_tier.h"
#include "service/events.h"
#include "service/snapshot.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace snd::service {
namespace {

ServiceConfig small_config() {
  ServiceConfig config;
  config.radio_range = 10.0;
  config.threshold_t = 1;
  return config;
}

// A 4-clique inside one radio disc: every pair shares the two other nodes,
// so with t = 1 every link is validated.
std::vector<std::pair<NodeId, util::Vec2>> clique4() {
  return {{1, {0.0, 0.0}}, {2, {1.0, 0.0}}, {3, {0.0, 1.0}}, {4, {1.0, 1.0}}};
}

TEST(ValidationServiceTest, EmptyServiceValidatesNothing) {
  ValidationService service(small_config());
  EXPECT_FALSE(service.validate(1, 2));
  EXPECT_EQ(service.node_count(), 0u);
  EXPECT_EQ(service.snapshot()->node_count(), 0u);
}

TEST(ValidationServiceTest, CliqueFullyValidated) {
  ValidationService service(small_config());
  const auto nodes = clique4();
  service.seed_topology(nodes);
  for (const auto& [u, pu] : nodes) {
    for (const auto& [v, pv] : nodes) {
      if (u == v) continue;
      EXPECT_TRUE(service.validate(u, v)) << u << " -> " << v;
    }
  }
  EXPECT_EQ(service.snapshot()->validated_edge_count(), 12u);
}

TEST(ValidationServiceTest, IsolatedPairBelowThresholdRejected) {
  ValidationService service(small_config());
  // Two nodes in range of each other but with no common neighbor: the
  // threshold rule |N(u) ∩ N(v)| >= t+1 = 2 cannot be met.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(1, {0.0, 0.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(2, {1.0, 0.0})).ok);
  EXPECT_FALSE(service.validate(1, 2));
  const NodeState* state = service.snapshot()->find(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->neighbors.size(), 1u);
  EXPECT_TRUE(state->validated.empty());
}

TEST(ValidationServiceTest, DeployUpdateRevokeLifecycle) {
  ValidationService service(small_config());
  // A 5-clique; with t = 1 every pair needs 2 common neighbors, so pairs
  // survive one removal (3 -> 2 witnesses) but not two.
  const std::vector<std::pair<NodeId, util::Vec2>> clique5 = {{1, {0.0, 0.0}},
                                                              {2, {1.0, 0.0}},
                                                              {3, {0.0, 1.0}},
                                                              {4, {1.0, 1.0}},
                                                              {5, {0.5, 0.5}}};
  service.seed_topology(clique5);
  ASSERT_TRUE(service.validate(1, 2));

  // Move node 5 out of range: the 4-clique pairs still have 2 witnesses.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {100.0, 100.0})).ok);
  EXPECT_FALSE(service.validate(1, 5));
  EXPECT_TRUE(service.validate(1, 2));

  // Revoking node 4 leaves 1-2 with only node 3 as witness: below t+1.
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(4)).ok);
  EXPECT_FALSE(service.validate(1, 2));
  EXPECT_EQ(service.node_count(), 4u);

  // Move node 5 back: the 4-clique re-forms and validates again.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {0.5, 0.5})).ok);
  EXPECT_TRUE(service.validate(1, 2));
  EXPECT_TRUE(service.validate(2, 5));
}

TEST(ValidationServiceTest, RejectsInvalidEvents) {
  ValidationService service(small_config());
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(1, {0.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(1, {5.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(9, {0.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(9)).ok);
  // Positions the grid cannot index: non-finite ones, and ones so far out
  // that the disc's cell range leaves int32 (with R = 10, x + R of the last
  // one lands in cell INT32_MAX, where the cell loop never ended).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<util::Vec2> hostile = {{nan, 0.0},    {0.0, nan},     {inf, 0.0},
                                           {0.0, -inf},   {1e300, 0.0},   {0.0, -1e300},
                                           {21474836465.0, 0.0}};
  for (const util::Vec2 position : hostile) {
    const ApplyResult deploy = service.apply(TopologyEvent::deploy(2, position));
    EXPECT_FALSE(deploy.ok) << position.x << ", " << position.y;
    EXPECT_NE(deploy.error.find("position"), std::string::npos) << deploy.error;
    EXPECT_FALSE(service.apply(TopologyEvent::update(1, position)).ok)
        << position.x << ", " << position.y;
  }
  // Rejections do not bump the epoch or the event counter.
  EXPECT_EQ(service.events_applied(), 1u);
  EXPECT_EQ(service.snapshot()->epoch(), 1u);
  EXPECT_EQ(service.snapshot()->find(1)->position, (util::Vec2{0.0, 0.0}));

  // seed_topology rejects the whole set and publishes nothing.
  ValidationService seeded(small_config());
  const std::vector<std::pair<NodeId, util::Vec2>> bad_seed = {{1, {0.0, 0.0}},
                                                               {2, {0.0, inf}}};
  EXPECT_FALSE(seeded.seed_topology(bad_seed).ok);
  EXPECT_EQ(seeded.node_count(), 0u);
  EXPECT_EQ(seeded.snapshot()->epoch(), 0u);
  EXPECT_TRUE(seeded.seed_topology(clique4()).ok);
}

/// Node-table copies per event over 200 seeded events against `nodes` nodes
/// of mean degree 12 with ids 0, id_stride, 2 * id_stride, ...
double copies_per_event(std::size_t nodes, NodeId id_stride) {
  constexpr double kRange = 50.0;
  const double width =
      std::sqrt(static_cast<double>(nodes) * std::numbers::pi * kRange * kRange / 12.0);
  const util::Rect field{{0.0, 0.0}, {width, width}};
  util::Rng rng(17);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId id = static_cast<NodeId>(i) * id_stride;
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
    live.push_back(id);
  }
  ServiceConfig config;
  config.radio_range = kRange;
  config.threshold_t = 2;
  ValidationService service(config);
  EXPECT_TRUE(service.seed_topology(initial).ok);
  const std::uint64_t before = service.table_copies();
  for (const TopologyEvent& event : random_events(200, field, std::move(live), 99)) {
    EXPECT_TRUE(service.apply(event).ok);
  }
  return static_cast<double>(service.table_copies() - before) / 200.0;
}

TEST(ValidationServiceTest, IngestCopiesTrackTouchedNodesNotN) {
  // An event rewrites the ~13 states in its radio disc whatever n is, so
  // the chunks it copies must not grow with the nodes it leaves alone (a
  // whole-map copy per event would make this ratio 16). Both worlds take
  // their ids from [0, 32000), so both tables have the same height.
  const double small = copies_per_event(2'000, 16);
  const double large = copies_per_event(32'000, 1);
  EXPECT_GT(small, 0.0);
  EXPECT_LE(large, 1.25 * small) << small << " vs " << large;
  // With dense ids 0..n-1 the 2k table has only two mid-level chunks, which
  // every event shares; at 32k an event's paths split there too. That adds
  // at most one copy per touched node and level (the table height), so the
  // ratio stays far below the 16 of a per-event copy of the whole map.
  const double dense_small = copies_per_event(2'000, 1);
  EXPECT_LE(large, 2.0 * dense_small) << dense_small << " vs " << large;
}

TEST(ValidationServiceTest, PairChecksVisitEachPairOnce) {
  const util::Rect field{{0.0, 0.0}, {200.0, 200.0}};
  ValidationService service({25.0, 2, {}});
  util::Rng rng(8);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 0; id < 300; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
    live.push_back(id);
  }
  ASSERT_TRUE(service.seed_topology(initial).ok);
  // Seeding evaluates each undirected tentative edge exactly once.
  std::size_t directed = 0;
  for (const auto& [id, state] : service.snapshot()->nodes()) directed += state->neighbors.size();
  EXPECT_EQ(service.pair_checks(), directed / 2);
  (void)service.rebuild();
  EXPECT_EQ(service.pair_checks(), directed / 2) << "rebuild() is not counted";

  // An event evaluates at most the pairs among the nodes it touches: e and
  // everything within R of its old or new position.
  const auto neighbors_of = [&](NodeId id) {
    const NodeState* state = service.snapshot()->find(id);
    return state == nullptr ? topology::NeighborList{} : state->neighbors;
  };
  std::uint64_t event_checks = 0;
  for (const TopologyEvent& event : random_events(300, field, std::move(live), 9)) {
    const topology::NeighborList before = neighbors_of(event.node);
    const std::uint64_t checks_before = service.pair_checks();
    ASSERT_TRUE(service.apply(event).ok);
    const topology::NeighborList after = neighbors_of(event.node);
    topology::NeighborList disc;
    std::set_union(before.begin(), before.end(), after.begin(), after.end(),
                   std::back_inserter(disc));
    const std::size_t touched = disc.size() + (event.kind == EventKind::kRevoke ? 0 : 1);
    const std::uint64_t checks = service.pair_checks() - checks_before;
    EXPECT_LE(checks, touched * (touched - 1) / 2)
        << event_kind_name(event.kind) << " of node " << event.node;
    event_checks += checks;
  }
  EXPECT_GT(event_checks, 0u);
}

/// A fresh state whose position.x carries `tag`, so a test can tell states
/// apart by content rather than by address.
std::uint32_t tagged_state(NodeTable::Editor& edit, double tag) {
  const std::uint32_t slot = edit.new_state();
  edit.state(slot) = NodeState{{tag, 0.0}, {}, {}};
  return slot;
}

void expect_table_matches(const NodeTable& table, const std::map<NodeId, double>& expected) {
  ASSERT_EQ(table.size(), expected.size());
  std::map<NodeId, double> seen;
  NodeId last = 0;
  for (const auto& [id, state] : table) {
    EXPECT_TRUE(seen.empty() || id > last) << "iteration not ascending at " << id;
    last = id;
    seen[id] = state->position.x;
    EXPECT_EQ(table.find(id), state);
  }
  EXPECT_EQ(seen, expected);
}

TEST(NodeTableTest, MatchesMapModelAndPinnedTablesNeverChange) {
  // Tables stay pinned for a random while and are checked when unpinned, so
  // later edits recycle slots of older, unpinned tables under them.
  util::Rng rng(5);
  NodeArena arena;
  NodeTable table;
  std::map<NodeId, double> model;
  struct Pinned {
    std::uint64_t epoch;
    NodeTable table;
    std::map<NodeId, double> model;
  };
  std::vector<Pinned> pinned;
  double tag = 0.0;
  for (std::uint64_t epoch = 1; epoch <= 200; ++epoch) {
    NodeTable::Editor edit(arena, table);
    for (int op = 0; op < 40; ++op) {
      // Mostly small ids (shared chunks, pruning), some anywhere in u32.
      const NodeId id = rng.chance(0.8) ? static_cast<NodeId>(rng.uniform_int(300))
                                        : static_cast<NodeId>(rng.uniform_int(1ull << 32));
      if (rng.chance(0.3)) {
        EXPECT_EQ(edit.erase(id), model.erase(id) == 1) << id;
      } else {
        tag += 1.0;
        edit.set(id, tagged_state(edit, tag));
        model[id] = tag;
      }
      const NodeState* found = edit.find(id);
      ASSERT_EQ(found != nullptr, model.count(id) != 0) << id;
      if (found != nullptr) {
        ASSERT_EQ(found->position.x, model[id]) << id;
      }
    }
    table = edit.commit();
    arena.pin(epoch);
    pinned.push_back({epoch, table, model});
    while (pinned.size() > 8 || (!pinned.empty() && rng.chance(0.3))) {
      const std::size_t k = rng.uniform_int(pinned.size());
      expect_table_matches(pinned[k].table, pinned[k].model);
      arena.unpin(pinned[k].epoch);
      pinned.erase(pinned.begin() + static_cast<std::ptrdiff_t>(k));
    }
    arena.seal(epoch);
  }
  for (const Pinned& kept : pinned) expect_table_matches(kept.table, kept.model);
  // Every state set is either in the newest table or retired: none leaks.
  EXPECT_EQ(arena.usage().live_states, table.size());
}

TEST(NodeTableTest, OneEditCopiesEachChunkOnce) {
  NodeArena arena;
  NodeTable::Editor first(arena, NodeTable{});
  for (NodeId id = 0; id < 64; ++id) first.set(id, first.new_state());
  const NodeTable base = first.commit();
  ASSERT_EQ(base.levels(), 2u);  // a root over two leaves

  NodeTable::Editor edit(arena, base);
  EXPECT_EQ(edit.copies(), 0u);
  edit.set(3, edit.new_state());
  EXPECT_EQ(edit.copies(), 2u);  // root and leaf 0
  edit.set(5, edit.new_state());
  EXPECT_EQ(edit.copies(), 2u);  // both already owned by this edit
  edit.set(40, edit.new_state());
  EXPECT_EQ(edit.copies(), 3u);  // plus leaf 1
  EXPECT_FALSE(edit.erase(1000));
  EXPECT_EQ(edit.copies(), 3u);  // erasing an absent id copies nothing
  const NodeTable next = edit.commit();
  EXPECT_NE(base.find(3), next.find(3));
  EXPECT_EQ(base.find(4), next.find(4));
  // commit() retired the token: the next write copies root and leaf again.
  const NodeState* committed = next.find(6);
  edit.set(6, edit.new_state());
  EXPECT_EQ(edit.copies(), 5u);
  EXPECT_EQ(next.find(6), committed);
  EXPECT_NE(edit.find(6), committed);
  // The three copied chunks and the three replaced states wait for a seal.
  EXPECT_EQ(arena.usage().retired_chunks, 3u + 2u);
  EXPECT_EQ(arena.usage().retired_states, 3u + 1u);
}

TEST(ValidationServiceTest, SnapshotsAreImmutableVersions) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  const auto before = service.snapshot();
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(3)).ok);
  const auto after = service.snapshot();
  EXPECT_LT(before->epoch(), after->epoch());
  // The retained snapshot still answers with the old world.
  EXPECT_TRUE(before->validate(1, 2));
  EXPECT_FALSE(after->validate(1, 2));
  EXPECT_EQ(before->node_count(), 4u);
  EXPECT_EQ(after->node_count(), 3u);
}

TEST(ValidationServiceTest, DigestMatchesRebuildAfterEvents) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  ASSERT_TRUE(service.apply(TopologyEvent::update(2, {2.0, 2.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(7, {0.5, 1.5})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(1)).ok);
  EXPECT_EQ(service.snapshot()->canonical_json(), service.rebuild()->canonical_json());
  EXPECT_EQ(service.snapshot()->digest(), service.rebuild()->digest());
}

TEST(ServiceEventsTest, RandomEventsAreDeterministicAndValid) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  const auto a = random_events(200, field, {1, 2, 3}, 42);
  const auto b = random_events(200, field, {1, 2, 3}, 42);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_TRUE(a == b);
  const auto c = random_events(200, field, {1, 2, 3}, 43);
  EXPECT_FALSE(a == c);
  // Replaying against a service seeded with the same live set never hits a
  // rejection: the generator only moves/revokes live ids.
  ValidationService service(small_config());
  const std::vector<std::pair<NodeId, util::Vec2>> initial = {
      {1, {0.0, 0.0}}, {2, {1.0, 0.0}}, {3, {0.0, 1.0}}};
  service.seed_topology(initial);
  for (const TopologyEvent& event : a) {
    EXPECT_TRUE(service.apply(event).ok) << event_kind_name(event.kind) << " "
                                         << event.node;
  }
}

TEST(ServiceWireTest, QueryRoundTrip) {
  ValidationService service(small_config());
  service.seed_topology(clique4());

  util::Bytes out;
  ASSERT_TRUE(wire::handle_request(service, wire::encode_query(1, 2), out));
  const auto reply = wire::decode_query_reply(out);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->accepted);
  EXPECT_EQ(reply->epoch, service.snapshot()->epoch());

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_query(1, 99), out));
  const auto miss = wire::decode_query_reply(out);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss->accepted);
}

TEST(ServiceWireTest, EventStatsDigestAndShutdown) {
  ValidationService service(small_config());
  service.seed_topology(clique4());

  util::Bytes out;
  ASSERT_TRUE(
      wire::handle_request(service, wire::encode_event(TopologyEvent::revoke(4)), out));
  EXPECT_EQ(service.node_count(), 3u);

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_stats(), out));
  const auto stats = wire::decode_stats_reply(out);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->nodes, 3u);
  EXPECT_EQ(stats->events_applied, 1u);

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_digest(), out));
  const auto digest = wire::decode_digest_reply(out);
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(digest->digest, service.snapshot()->digest());

  out.clear();
  EXPECT_FALSE(wire::handle_request(service, wire::encode_shutdown(), out));
}

TEST(ServiceWireTest, MalformedRequestsAnswerErrorWithoutMutating) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  const std::string before = service.snapshot()->canonical_json();

  const std::vector<util::Bytes> bad = {
      {},                    // empty payload
      {0x7F},                // unknown opcode
      {wire::kQuery, 0x01},  // truncated query
      {wire::kEvent, 0x09},  // unknown event kind + truncated body
      // Disc cell range overflows int32: once hung the daemon's only thread.
      wire::encode_event(TopologyEvent::deploy(9, {21474836465.0, 0.0})),
  };
  for (const util::Bytes& payload : bad) {
    util::Bytes out;
    EXPECT_TRUE(wire::handle_request(service, payload, out));
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], wire::kError);
  }
  EXPECT_EQ(service.snapshot()->canonical_json(), before);
}

// -- Commitment maintenance --------------------------------------------------

/// Every live node's maintained commitment must equal the scalar
/// core::binding_commitment over its snapshot tentative list.
void expect_commitments_match_scalar(const ValidationService& service,
                                     const crypto::SymmetricKey& master) {
  const auto snapshot = service.snapshot();
  std::size_t live = 0;
  for (const auto& [id, state] : snapshot->nodes()) {
    ++live;
    const crypto::Digest* maintained = service.binding_commitment_of(id);
    ASSERT_NE(maintained, nullptr) << "node " << id;
    EXPECT_EQ(*maintained, core::binding_commitment(master, id, 0, state->neighbors))
        << "node " << id;
  }
  EXPECT_EQ(service.commitment_count(), live);
}

TEST(ServiceCommitmentTest, MaintainedIncrementallyAcrossLifecycle) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(0xc0117);
  ServiceConfig config = small_config();
  config.master_key = master;
  ValidationService service(config);

  service.seed_topology(clique4());
  expect_commitments_match_scalar(service, master);

  // Deploy a fifth node: its own commitment appears and every in-range
  // neighbor's is refreshed.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(5, {0.5, 0.5})).ok);
  expect_commitments_match_scalar(service, master);

  // Move it out of the clique's disc, then back near one corner.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {100.0, 100.0})).ok);
  expect_commitments_match_scalar(service, master);
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {1.5, 1.0})).ok);
  expect_commitments_match_scalar(service, master);

  // Revocation erases the node's commitment and refreshes its neighbors'.
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(5)).ok);
  EXPECT_EQ(service.binding_commitment_of(5), nullptr);
  expect_commitments_match_scalar(service, master);

  // Rejected events leave the commitment table untouched.
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(99)).ok);
  expect_commitments_match_scalar(service, master);
}

TEST(ServiceCommitmentTest, BatchedMaintenanceMatchesSerialFallback) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(0xc0118);
  ServiceConfig config = small_config();
  config.master_key = master;

  auto run = [&](util::SimdTier tier) {
    const test::ForcedTier forced(tier);
    ValidationService service(config);
    service.seed_topology(clique4());
    service.apply(TopologyEvent::deploy(5, {0.5, 0.5}));
    service.apply(TopologyEvent::update(2, {0.5, 1.5}));
    std::vector<std::pair<NodeId, crypto::Digest>> out;
    for (const auto& [id, state] : service.snapshot()->nodes()) {
      (void)state;
      out.emplace_back(id, *service.binding_commitment_of(id));
    }
    return out;
  };
  const auto serial = run(util::SimdTier::kScalar);
  for (const util::SimdTier tier : test::kAllTiers) {
    EXPECT_EQ(run(tier), serial) << test::tier_label(tier);
  }
}

TEST(ServiceCommitmentTest, AbsentMasterKeyDisablesMaintenance) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  EXPECT_EQ(service.commitment_count(), 0u);
  EXPECT_EQ(service.binding_commitment_of(1), nullptr);
}

}  // namespace
}  // namespace snd::service
