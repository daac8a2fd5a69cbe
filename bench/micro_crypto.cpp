// Microbenchmarks of the cryptographic substrate (google-benchmark): the
// paper's efficiency argument is that the whole protocol costs "a few
// efficient one-way hash operations"; these benches put numbers on each
// primitive as implemented here.
//
// Besides the google-benchmark suite, main() always measures the
// authenticated Messenger send+open round trip (cached pairwise keys + HMAC
// midstates + zero-alloc wire handling) and writes its cost as
// BENCH_micro_crypto.json into $SND_BENCH_DIR (default: the working
// directory), the per-PR perf artifact CI uploads.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <vector>

#include "core/binding_record.h"
#include "core/commitment.h"
#include "core/messenger.h"
#include "crypto/blundo.h"
#include "crypto/eg_pool.h"
#include "crypto/hmac.h"
#include "crypto/secure_channel.h"
#include "crypto/session_cache.h"
#include "crypto/sha256.h"
#include "util/runtime_config.h"
#include "util/simd.h"
#include "sim/network.h"

namespace {

using namespace snd;

void BM_Sha256(benchmark::State& state) {
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(1);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(256);

void BM_VerificationKey(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(2);
  NodeId node = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verification_key(master, node++));
  }
}
BENCHMARK(BM_VerificationKey);

void BM_BindingCommitment(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(3);
  topology::NeighborList neighbors;
  for (NodeId i = 0; i < static_cast<NodeId>(state.range(0)); ++i) neighbors.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::binding_commitment(master, 1, 0, neighbors));
  }
}
BENCHMARK(BM_BindingCommitment)->Arg(10)->Arg(50)->Arg(150);

/// The tier that pins a commitment-batch lane width: 1 is the serial seed
/// path (kScalar: portable compressor), 8 the AVX2 multi-buffer kernel.
util::SimdTier width_tier(int width) {
  return width == 8 ? util::SimdTier::kAvx2 : util::SimdTier::kScalar;
}

/// Batched commitment derivation through the multi-buffer engine. Arg 0 is
/// the neighbor-list length, arg 1 the lane width (1 or 8); width 8 is
/// skipped on CPUs without AVX2.
void BM_BindingCommitmentBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(1));
  if (width == 8 && util::detected_simd_tier() < util::SimdTier::kAvx2) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  util::set_forced_simd_tier(width_tier(width));

  constexpr std::size_t kBatch = 256;
  std::vector<topology::NeighborList> lists(kBatch);
  std::vector<core::BindingSpec> specs(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (NodeId n = 0; n < static_cast<NodeId>(state.range(0)); ++n)
      lists[i].push_back(static_cast<NodeId>(i) + n);
    specs[i] = {static_cast<NodeId>(i + 1), 0, &lists[i]};
  }
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(12);
  std::vector<crypto::Digest> out(kBatch);
  for (auto _ : state) {
    core::binding_commitments(master, specs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
  util::set_forced_simd_tier(std::nullopt);
}
BENCHMARK(BM_BindingCommitmentBatch)->Args({50, 1})->Args({50, 8});

void BM_BindingRecordVerify(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(4);
  topology::NeighborList neighbors;
  for (NodeId i = 0; i < static_cast<NodeId>(state.range(0)); ++i) neighbors.push_back(i);
  const core::BindingRecord record = core::BindingRecord::make(master, 1, 0, neighbors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.verify(master));
  }
}
BENCHMARK(BM_BindingRecordVerify)->Arg(50);

void BM_RelationCommitment(benchmark::State& state) {
  const crypto::SymmetricKey kv =
      core::verification_key(crypto::SymmetricKey::from_seed(5), 7);
  NodeId u = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::relation_commitment(kv, u++));
  }
}
BENCHMARK(BM_RelationCommitment);

void BM_SecureChannelRoundTrip(benchmark::State& state) {
  const crypto::SymmetricKey pairwise = crypto::SymmetricKey::from_seed(6);
  crypto::SecureChannel sender(1, 2, pairwise);
  crypto::SecureChannel receiver(2, 1, pairwise);
  const util::Bytes message(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.open(sender.seal(message)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SecureChannelRoundTrip)->Arg(64);

void BM_BlundoPairwise(benchmark::State& state) {
  crypto::BlundoScheme scheme(7, static_cast<std::size_t>(state.range(0)));
  scheme.provision(1);
  scheme.provision(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.pairwise(1, 2));
  }
}
BENCHMARK(BM_BlundoPairwise)->Arg(5)->Arg(20)->Arg(50);

void BM_BlundoProvision(benchmark::State& state) {
  crypto::BlundoScheme scheme(8, 20);
  NodeId node = 1;
  for (auto _ : state) {
    scheme.provision(node++);
  }
}
BENCHMARK(BM_BlundoProvision);

void BM_EgPairwise(benchmark::State& state) {
  crypto::EschenauerGligorScheme scheme(9, 10000, 150);
  scheme.provision(1);
  scheme.provision(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.pairwise(1, 2));
  }
}
BENCHMARK(BM_EgPairwise);

void BM_ShortMacFromScratch(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(11);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::short_mac(key, data));
  }
}
BENCHMARK(BM_ShortMacFromScratch)->Arg(32)->Arg(256);

void BM_ShortMacFromMidstate(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(11);
  const crypto::HmacKey cached(key);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.short_mac(data));
  }
}
BENCHMARK(BM_ShortMacFromMidstate)->Arg(32)->Arg(256);

void BM_PairKeyCacheHit(benchmark::State& state) {
  std::shared_ptr<const crypto::KeyPredistribution> scheme = crypto::KdcScheme::from_seed(5);
  crypto::PairKeyCache cache(scheme, 1);
  (void)cache.get(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.get(2));
  }
}
BENCHMARK(BM_PairKeyCacheHit);

/// Authenticated unicast round trip through the simulated radio: send() on
/// one Messenger, delivery via the scheduler, open() on the peer. Arg 0
/// selects the key scheme (0 = KDC, 1 = Blundo lambda=20).
void BM_AuthRoundTrip(benchmark::State& state) {
  std::shared_ptr<crypto::KeyPredistribution> keys;
  if (state.range(0) == 0) {
    keys = crypto::KdcScheme::from_seed(5);
  } else {
    auto blundo = std::make_shared<crypto::BlundoScheme>(7, 20);
    blundo->provision(1);
    blundo->provision(2);
    keys = std::move(blundo);
  }
  sim::Network network(std::make_unique<sim::UnitDiskModel>(100.0), sim::ChannelConfig{}, 1);
  const sim::DeviceId a = network.add_device(1, {0, 0});
  const sim::DeviceId b = network.add_device(2, {10, 0});
  core::Messenger alice(network, a, 1, keys);
  core::Messenger bob(network, b, 2, keys);
  std::size_t accepted = 0;
  network.set_receiver(b, [&bob, &accepted](const sim::Packet& p) {
    if (bob.open(p)) ++accepted;
  });
  network.set_receiver(a, [](const sim::Packet&) {});
  const util::Bytes payload(24, 0x42);
  for (auto _ : state) {
    alice.send(2, 9, payload, obs::Phase::kOther);
    network.scheduler().run();
  }
  benchmark::DoNotOptimize(accepted);
  state.SetLabel(state.range(0) == 0 ? "kdc" : "blundo20");
}
BENCHMARK(BM_AuthRoundTrip)->Arg(0)->Arg(1);

struct RoundTripCost {
  double us_per_msg = 0.0;
  std::uint64_t hash_ops = 0;  ///< SHA-256 compressions over the timed messages
  double hash_ops_per_msg = 0.0;
};

/// Wall-clock of `messages` authenticated send+open round trips (delivery
/// included: open() runs inside the scheduled delivery event, exactly as the
/// protocol drives it).
RoundTripCost measure_roundtrip(const std::shared_ptr<crypto::KeyPredistribution>& keys,
                                int messages) {
  sim::Network network(std::make_unique<sim::UnitDiskModel>(100.0), sim::ChannelConfig{}, 1);
  const sim::DeviceId a = network.add_device(1, {0, 0});
  const sim::DeviceId b = network.add_device(2, {10, 0});
  core::Messenger alice(network, a, 1, keys);
  core::Messenger bob(network, b, 2, keys);
  std::size_t accepted = 0;
  network.set_receiver(b, [&bob, &accepted](const sim::Packet& p) {
    if (bob.open(p)) ++accepted;
  });
  network.set_receiver(a, [](const sim::Packet&) {});
  const util::Bytes payload(24, 0x42);

  alice.send(2, 9, payload, obs::Phase::kOther);  // warm-up: primes the cache
  network.scheduler().run();

  crypto::reset_hash_op_count();
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < messages; ++i) {
    alice.send(2, 9, payload, obs::Phase::kOther);
    // Drain periodically so deliveries stay inside the replay window and the
    // event queue stays small; the drain is part of the timed round trip.
    if ((i & 31) == 31) network.scheduler().run();
  }
  network.scheduler().run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  if (accepted != static_cast<std::size_t>(messages) + 1) {
    std::fprintf(stderr, "round trip dropped messages: %zu of %d accepted\n", accepted,
                 messages + 1);
    std::exit(1);
  }
  const std::uint64_t hash_ops = crypto::hash_op_count();
  return {seconds / messages * 1e6, hash_ops, static_cast<double>(hash_ops) / messages};
}

struct CommitmentCost {
  double us_per_commit = 0.0;
  double commits_per_s = 0.0;
  std::uint64_t hash_ops = 0;  ///< SHA-256 compressions over the timed rounds
  std::vector<crypto::Digest> digests;  ///< the last round's commitments
};

/// Wall-clock of batched binding-commitment derivation (256 commitments per
/// drain, 50-entry neighbor lists) at one lane width: 1 pins the serial seed
/// path, 8 the AVX2 multi-buffer kernel.
CommitmentCost measure_commitments(int width, int rounds) {
  util::set_forced_simd_tier(width_tier(width));
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kNeighbors = 50;
  std::vector<topology::NeighborList> lists(kBatch);
  std::vector<core::BindingSpec> specs(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (std::size_t n = 0; n < kNeighbors; ++n)
      lists[i].push_back(static_cast<NodeId>(i + n));
    specs[i] = {static_cast<NodeId>(i + 1), 0, &lists[i]};
  }
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(12);
  CommitmentCost cost;
  cost.digests.resize(kBatch);

  core::binding_commitments(master, specs, cost.digests);  // warm-up
  const std::uint64_t ops_before = crypto::hash_op_count();
  const auto begin = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) core::binding_commitments(master, specs, cost.digests);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  cost.hash_ops = crypto::hash_op_count() - ops_before;
  util::set_forced_simd_tier(std::nullopt);
  const double total = static_cast<double>(rounds) * kBatch;
  cost.us_per_commit = seconds / total * 1e6;
  cost.commits_per_s = total / seconds;
  return cost;
}

/// Commitment-throughput width series (serial vs 8-lane), appended to the
/// artifact. The speedup is a trend value only: a wall-clock ratio of two
/// loops on a shared host is not a pass/fail fact. Returns 0 when the exact
/// contract holds: on CPUs with AVX2, width 8 produces the serial path's
/// commitments byte for byte, with the same number of compressions.
int write_commitment_batch_block(char* json, std::size_t cap) {
  constexpr int kRounds = 200;
  const bool have_avx2 = util::detected_simd_tier() >= util::SimdTier::kAvx2;

  const CommitmentCost w1 = measure_commitments(1, kRounds);
  const CommitmentCost w8 = have_avx2 ? measure_commitments(8, kRounds) : w1;

  const double w8_speedup = have_avx2 ? w1.us_per_commit / w8.us_per_commit : 0.0;
  const bool identical = w8.digests == w1.digests;
  const bool same_work = w8.hash_ops == w1.hash_ops;
  const double commits = static_cast<double>(kRounds) * static_cast<double>(w1.digests.size());

  std::snprintf(json, cap,
                "  \"commitment_batch\": {\n"
                "    \"batch_size\": 256,\n"
                "    \"neighbors\": 50,\n"
                "    \"w1_us_per_commit\": %.3f,\n"
                "    \"w8_us_per_commit\": %.3f,\n"
                "    \"w8_speedup\": %.2f,\n"
                "    \"w1_commits_per_s\": %.0f,\n"
                "    \"w8_commits_per_s\": %.0f,\n"
                "    \"hash_ops_per_commit\": %.2f,\n"
                "    \"widths_identical\": %s\n"
                "  }\n",
                w1.us_per_commit, have_avx2 ? w8.us_per_commit : 0.0, w8_speedup,
                w1.commits_per_s, have_avx2 ? w8.commits_per_s : 0.0,
                static_cast<double>(w1.hash_ops) / commits,
                identical && same_work ? "true" : "false");
  std::printf("commitment batch: serial %.2f us, w8 %.2f us (%.2fx)\n", w1.us_per_commit,
              w8.us_per_commit, w8_speedup);
  std::printf("commitment widths: digests %s, hash ops %llu / %llu\n",
              identical ? "identical" : "DIFFER", static_cast<unsigned long long>(w1.hash_ops),
              static_cast<unsigned long long>(w8.hash_ops));
  return identical && same_work ? 0 : 1;
}

/// SHA-256 compressions one warm send+open round trip costs: the sender's
/// inner and outer HMAC contexts resume from cached midstates and absorb one
/// block each, and the receiver does the same. Key derivation runs only on
/// the warm-up message, so the count is independent of the key scheme.
constexpr std::uint64_t kHashOpsPerMessage = 4;

/// The round-trip artifact: authenticated send+open cost per message for
/// both key schemes, written as BENCH_micro_crypto.json. The work count is
/// gated exactly; us_per_msg feeds the CI trend gate.
int write_crypto_artifact() {
  constexpr int kMessages = 20000;

  std::shared_ptr<crypto::KeyPredistribution> kdc = crypto::KdcScheme::from_seed(5);
  auto blundo = std::make_shared<crypto::BlundoScheme>(7, 20);
  blundo->provision(1);
  blundo->provision(2);

  const RoundTripCost kdc_cost = measure_roundtrip(kdc, kMessages);
  const RoundTripCost blundo_cost = measure_roundtrip(blundo, kMessages);

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"name\": \"micro_crypto_auth_roundtrip\",\n"
                "  \"messages\": %d,\n"
                "  \"payload_bytes\": 24,\n"
                "  \"kdc\": {\n"
                "    \"us_per_msg\": %.3f,\n"
                "    \"hash_ops_per_msg\": %.2f\n"
                "  },\n"
                "  \"blundo_lambda20\": {\n"
                "    \"us_per_msg\": %.3f,\n"
                "    \"hash_ops_per_msg\": %.2f\n"
                "  },\n",
                kMessages, kdc_cost.us_per_msg, kdc_cost.hash_ops_per_msg,
                blundo_cost.us_per_msg, blundo_cost.hash_ops_per_msg);

  char batch_json[1024];
  const int batch_gate = write_commitment_batch_block(batch_json, sizeof(batch_json));

  const std::string path = bench_artifact_path("BENCH_micro_crypto.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(json, 1, std::strlen(json), f);
    std::fwrite(batch_json, 1, std::strlen(batch_json), f);
    std::fwrite("}\n", 1, 2, f);
    std::fclose(f);
  }
  std::printf("auth round trip, %d msgs: kdc %.2f us/msg, blundo20 %.2f us/msg -> %s\n",
              kMessages, kdc_cost.us_per_msg, blundo_cost.us_per_msg, path.c_str());
  std::printf("hash ops/msg: kdc %.2f, blundo20 %.2f (expected %llu)\n",
              kdc_cost.hash_ops_per_msg, blundo_cost.hash_ops_per_msg,
              static_cast<unsigned long long>(kHashOpsPerMessage));
  // Gate: the round trip's work count must be exactly the cached-midstate
  // cost for both schemes (any re-derivation or extra hashing shows up
  // here), and every commitment width must match the serial path's digests
  // and compression count exactly.
  const std::uint64_t expected_ops = kHashOpsPerMessage * kMessages;
  const bool work_ok = kdc_cost.hash_ops == expected_ops && blundo_cost.hash_ops == expected_ops;
  return (work_ok && batch_gate == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_crypto_artifact();
}
