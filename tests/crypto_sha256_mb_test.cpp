// Multi-buffer SHA-256 engine: digests must be bit-identical to the scalar
// crypto::Sha256 for every batch shape, lane width, and dispatch tier, and
// the per-thread compression counter must attribute identically batched vs
// serial (the §4.3 overhead bench depends on it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_mb.h"
#include "forced_tier.h"
#include "util/rng.h"

namespace snd::crypto {
namespace {

class Sha256MbTest : public ::testing::Test {};

util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}));
  return out;
}

// NIST FIPS 180-4 / CAVP one- and two-block vectors, replicated so each
// occupies a different lane of one wide pass.
TEST_F(Sha256MbTest, NistVectorsAcrossLanes) {
  const std::string one = "abc";
  const std::string two = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::string one_hex =
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  const std::string two_hex =
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";

  HashBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.add().update(one);
    batch.add().update(two);
  }
  batch.run();
  for (std::size_t i = 0; i < 8; i += 2) {
    EXPECT_EQ(batch.digest(i).hex(), one_hex);
    EXPECT_EQ(batch.digest(i + 1).hex(), two_hex);
  }

  // Empty-message lane mixed with the long CAVP vector.
  batch.clear();
  batch.add();
  batch.add().update(std::string(1'000'000, 'a'));
  batch.run();
  EXPECT_EQ(batch.digest(0).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(batch.digest(1).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Ragged batches: every batch size 1..9 over messages straddling all the
// padding boundaries (0, 55, 56, 63, 64, 65, ...) must match scalar Sha256.
TEST_F(Sha256MbTest, RaggedBatchesMatchScalar) {
  const std::size_t lengths[] = {0, 1, 3, 31, 55, 56, 63, 64, 65, 119, 120, 127, 128, 300};
  util::Rng rng(0x5a5a);
  std::vector<util::Bytes> messages;
  for (const std::size_t n : lengths) messages.push_back(random_bytes(rng, n));

  for (std::size_t size = 1; size <= 9; ++size) {
    HashBatch batch;
    std::vector<Digest> expected;
    for (std::size_t i = 0; i < size; ++i) {
      const util::Bytes& msg = messages[(size + i * 5) % messages.size()];
      batch.add().update(msg);
      expected.push_back(Sha256::hash(msg));
    }
    batch.run();
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(batch.digest(i), expected[i]) << "size=" << size << " i=" << i;
    }
  }
}

// Randomized equivalence sweep, including jobs resumed from mid-stream
// Sha256 contexts (arbitrary buffered tails) and the framed/u64 writers.
TEST_F(Sha256MbTest, RandomizedSerialVsBatched) {
  util::Rng rng(0xfeedbeef);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = 1 + rng.uniform_int(std::uint64_t{12});
    HashBatch batch;
    std::vector<Digest> expected;
    for (std::size_t i = 0; i < size; ++i) {
      const util::Bytes prefix = random_bytes(rng, rng.uniform_int(std::uint64_t{150}));
      const util::Bytes body = random_bytes(rng, rng.uniform_int(std::uint64_t{300}));
      const std::uint64_t word = rng.next();

      Sha256 base;
      base.update(prefix);
      HashBatch::Job job = batch.add(base);
      job.update_framed(body);
      job.update_u64(word);

      Sha256 scalar;
      scalar.update(prefix);
      scalar.update_framed(body);
      scalar.update_u64(word);
      expected.push_back(scalar.finalize());
    }
    batch.run();
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(batch.digest(i), expected[i]) << "round=" << round << " i=" << i;
    }
  }
}

// Every dispatch tier at or below the CPU's ceiling produces the same
// digests (the forced-tier override is how benches pin widths 1 and 8).
TEST_F(Sha256MbTest, AllTiersAgree) {
  util::Rng rng(0x7e57);
  std::vector<util::Bytes> messages;
  for (int i = 0; i < 7; ++i) messages.push_back(random_bytes(rng, 17 * static_cast<std::size_t>(i) + 1));

  std::vector<Digest> scalar;
  for (const auto& msg : messages) scalar.push_back(Sha256::hash(msg));

  for (const util::SimdTier tier : test::kAllTiers) {
    const test::ForcedTier forced(tier);
    HashBatch batch;
    for (const auto& msg : messages) batch.add().update(msg);
    batch.run();
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(batch.digest(i), scalar[i]) << test::tier_label(tier) << " i=" << i;
    }
  }
}

// The kScalar tier must select the serial seed path and still agree, and
// the batch must behave identically through clear() cycles that switch
// between the serial and wide drains.
TEST_F(Sha256MbTest, GateOffMatchesAndClearRecycles) {
  util::Rng rng(0x90a7);
  HashBatch batch;
  for (const util::SimdTier tier : {util::SimdTier::kAvx2, util::SimdTier::kScalar,
                                    util::SimdTier::kSse2, util::SimdTier::kAvx2}) {
    const test::ForcedTier forced(tier);
    batch.clear();
    std::vector<Digest> expected;
    for (int i = 0; i < 5; ++i) {
      const util::Bytes msg = random_bytes(rng, 40 * static_cast<std::size_t>(i) + 3);
      batch.add().update(msg);
      expected.push_back(Sha256::hash(msg));
    }
    batch.run();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch.digest(i), expected[i]) << test::tier_label(tier);
    }
  }
}

// The op counter must attribute a digest the same number of compressions
// whether it ran in a wide batch or serially -- including jobs resumed from
// HMAC midstates, whose pad blocks were counted at HmacKey construction.
TEST_F(Sha256MbTest, HashOpCountParity) {
  util::Rng rng(0xc0de);
  std::vector<util::Bytes> messages;
  for (int i = 0; i < 9; ++i) {
    messages.push_back(random_bytes(rng, rng.uniform_int(std::uint64_t{400})));
  }
  const SymmetricKey key = SymmetricKey::from_seed(rng.next());
  const HmacKey hmac(key);

  const auto run_once = [&](util::SimdTier tier) {
    const test::ForcedTier forced(tier);
    reset_hash_op_count();
    HashBatch batch;
    for (const auto& msg : messages) batch.add().update(msg);
    for (const auto& msg : messages) batch.add(hmac.inner_context()).update(msg);
    batch.run();
    std::vector<Digest> digests;
    for (std::size_t i = 0; i < batch.size(); ++i) digests.push_back(batch.digest(i));
    return std::pair(hash_op_count(), digests);
  };

  const auto [serial_ops, serial_digests] = run_once(util::SimdTier::kScalar);
  EXPECT_GT(serial_ops, 0u);
  for (const util::SimdTier tier : test::kAllTiers) {
    const auto [ops, digests] = run_once(tier);
    EXPECT_EQ(ops, serial_ops) << test::tier_label(tier);
    EXPECT_EQ(digests, serial_digests) << test::tier_label(tier);
  }
}

// RFC 4231-equivalent check through the midstate-resume interface: a
// batched HMAC (inner batch then outer batch) equals hmac_sha256().
TEST_F(Sha256MbTest, BatchedHmacMatchesScalar) {
  util::Rng rng(0x4231);
  const SymmetricKey key = SymmetricKey::from_seed(rng.next());
  const HmacKey hmac(key);
  std::vector<util::Bytes> messages;
  for (int i = 0; i < 6; ++i) {
    messages.push_back(random_bytes(rng, rng.uniform_int(std::uint64_t{200})));
  }

  HashBatch inner;
  for (const auto& msg : messages) inner.add(hmac.inner_context()).update(msg);
  inner.run();
  HashBatch outer;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    outer.add(hmac.outer_context()).update(inner.digest(i).bytes);
  }
  outer.run();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(outer.digest(i), hmac_sha256(key, messages[i]));
  }
}

// Midstate snapshot/resume round-trips exactly (same digest, same op count).
TEST_F(Sha256MbTest, MidstateResumeRoundTrip) {
  util::Rng rng(0x51d3);
  for (const std::size_t prefix_len : {std::size_t{0}, std::size_t{7}, std::size_t{64},
                                       std::size_t{100}, std::size_t{129}}) {
    const util::Bytes prefix = random_bytes(rng, prefix_len);
    const util::Bytes suffix = random_bytes(rng, 90);
    Sha256 original;
    original.update(prefix);
    Sha256 resumed = Sha256::resume(original.midstate());
    original.update(suffix);
    resumed.update(suffix);
    EXPECT_EQ(original.finalize(), resumed.finalize());
  }
}

}  // namespace
}  // namespace snd::crypto
