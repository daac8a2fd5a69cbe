#include "core/commitment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/binding_record.h"
#include "forced_tier.h"

namespace snd::core {
namespace {

class CommitmentTest : public ::testing::Test {
 protected:
  crypto::SymmetricKey master_ = crypto::SymmetricKey::from_seed(1);
  crypto::SymmetricKey other_master_ = crypto::SymmetricKey::from_seed(2);
};

TEST_F(CommitmentTest, VerificationKeyDeterministic) {
  EXPECT_TRUE(verification_key(master_, 5) == verification_key(master_, 5));
}

TEST_F(CommitmentTest, VerificationKeyDependsOnNode) {
  EXPECT_FALSE(verification_key(master_, 5) == verification_key(master_, 6));
}

TEST_F(CommitmentTest, VerificationKeyDependsOnMaster) {
  EXPECT_FALSE(verification_key(master_, 5) == verification_key(other_master_, 5));
}

TEST_F(CommitmentTest, BindingCommitmentBindsEveryField) {
  const topology::NeighborList neighbors = {2, 3, 4};
  const crypto::Digest base = binding_commitment(master_, 1, 0, neighbors);
  EXPECT_NE(base, binding_commitment(master_, 9, 0, neighbors));       // node
  EXPECT_NE(base, binding_commitment(master_, 1, 1, neighbors));       // version
  EXPECT_NE(base, binding_commitment(master_, 1, 0, {2, 3}));          // list
  EXPECT_NE(base, binding_commitment(other_master_, 1, 0, neighbors)); // key
  EXPECT_EQ(base, binding_commitment(master_, 1, 0, neighbors));
}

TEST_F(CommitmentTest, RelationCommitmentMatchesBothDerivations) {
  // u computes C(u,v) from K via K_v; v verifies with its stored K_v.
  const crypto::SymmetricKey kv = verification_key(master_, 7);
  EXPECT_EQ(relation_commitment(kv, 3), relation_commitment(verification_key(master_, 7), 3));
  EXPECT_NE(relation_commitment(kv, 3), relation_commitment(kv, 4));
}

TEST_F(CommitmentTest, EvidenceBindsAllInputs) {
  const crypto::Digest base = relation_evidence(master_, 1, 2, 0);
  EXPECT_NE(base, relation_evidence(master_, 2, 1, 0));  // direction matters
  EXPECT_NE(base, relation_evidence(master_, 1, 2, 1));  // version matters
  EXPECT_NE(base, relation_evidence(other_master_, 1, 2, 0));
}

TEST_F(CommitmentTest, DomainsAreSeparated) {
  // The same inputs through different derivations never collide.
  const crypto::Digest binding = binding_commitment(master_, 1, 0, {});
  const crypto::Digest evidence = relation_evidence(master_, 1, 0, 0);
  EXPECT_NE(binding, evidence);
}

// Every batched derivation must equal its scalar counterpart element for
// element at every SIMD tier (kAvx2: wide engine; below it: serial).
TEST_F(CommitmentTest, BatchedDerivationsMatchScalar) {
  const std::vector<NodeId> nodes = {3, 1, 4, 1, 5, 9, 2, 6};
  const topology::NeighborList neighbors_a = {2, 3, 4};
  const topology::NeighborList neighbors_b = {};

  for (const util::SimdTier tier : test::kAllTiers) {
    const test::ForcedTier forced(tier);
    const std::string label = test::tier_label(tier);

    std::vector<crypto::SymmetricKey> vkeys(nodes.size());
    verification_keys(master_, nodes, vkeys);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_TRUE(vkeys[i] == verification_key(master_, nodes[i])) << label;
    }

    std::vector<crypto::Digest> commits(nodes.size());
    relation_commitments(vkeys, 7, commits);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(commits[i], relation_commitment(vkeys[i], 7)) << label;
    }

    const std::vector<EvidenceSpec> specs = {{1, 2, 0}, {2, 1, 0}, {1, 2, 1}, {9, 9, 3}};
    std::vector<crypto::Digest> evidences(specs.size());
    relation_evidences(master_, specs, evidences);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(evidences[i],
                relation_evidence(master_, specs[i].u, specs[i].v, specs[i].version))
          << label;
    }

    const std::vector<BindingSpec> bindings = {{1, 0, &neighbors_a},
                                               {9, 2, &neighbors_b},
                                               {1, 1, &neighbors_a}};
    std::vector<crypto::Digest> binding_digests(bindings.size());
    binding_commitments(master_, bindings, binding_digests);
    for (std::size_t i = 0; i < bindings.size(); ++i) {
      EXPECT_EQ(binding_digests[i],
                binding_commitment(master_, bindings[i].node, bindings[i].version,
                                   *bindings[i].neighbors))
          << label;
    }
  }
}

class BindingRecordTest : public ::testing::Test {
 protected:
  crypto::SymmetricKey master_ = crypto::SymmetricKey::from_seed(3);
};

TEST_F(BindingRecordTest, MakeSortsAndDeduplicates) {
  const BindingRecord record = BindingRecord::make(master_, 1, 0, {5, 3, 5, 1});
  EXPECT_EQ(record.neighbors, (topology::NeighborList{1, 3, 5}));
}

TEST_F(BindingRecordTest, VerifyAcceptsGenuine) {
  const BindingRecord record = BindingRecord::make(master_, 1, 2, {2, 3});
  EXPECT_TRUE(record.verify(master_));
}

TEST_F(BindingRecordTest, VerifyRejectsWrongKey) {
  const BindingRecord record = BindingRecord::make(master_, 1, 0, {2, 3});
  EXPECT_FALSE(record.verify(crypto::SymmetricKey::from_seed(99)));
}

TEST_F(BindingRecordTest, VerifyRejectsTamperedNeighborList) {
  BindingRecord record = BindingRecord::make(master_, 1, 0, {2, 3});
  record.neighbors.push_back(9);
  EXPECT_FALSE(record.verify(master_));
}

TEST_F(BindingRecordTest, VerifyRejectsTamperedVersion) {
  BindingRecord record = BindingRecord::make(master_, 1, 0, {2, 3});
  record.version = 1;
  EXPECT_FALSE(record.verify(master_));
}

TEST_F(BindingRecordTest, VerifyRejectsUnsortedList) {
  BindingRecord record = BindingRecord::make(master_, 1, 0, {2, 3});
  std::swap(record.neighbors[0], record.neighbors[1]);
  EXPECT_FALSE(record.verify(master_));
}

TEST_F(BindingRecordTest, SerializeParseRoundTrip) {
  const BindingRecord record = BindingRecord::make(master_, 42, 3, {1, 2, 3, 100000});
  const auto parsed = BindingRecord::parse(record.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, record);
  EXPECT_TRUE(parsed->verify(master_));
}

TEST_F(BindingRecordTest, EmptyNeighborListRoundTrips) {
  const BindingRecord record = BindingRecord::make(master_, 1, 0, {});
  const auto parsed = BindingRecord::parse(record.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->neighbors.empty());
  EXPECT_TRUE(parsed->verify(master_));
}

TEST_F(BindingRecordTest, ParseRejectsTruncation) {
  const BindingRecord record = BindingRecord::make(master_, 1, 0, {2, 3, 4});
  const util::Bytes serialized = record.serialize();
  for (std::size_t cut = 0; cut < serialized.size(); ++cut) {
    const util::Bytes truncated(serialized.begin(),
                                serialized.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(BindingRecord::parse(truncated).has_value()) << "cut at " << cut;
  }
}

TEST_F(BindingRecordTest, ParseRejectsTrailingGarbage) {
  util::Bytes serialized = BindingRecord::make(master_, 1, 0, {2}).serialize();
  serialized.push_back(0x00);
  EXPECT_FALSE(BindingRecord::parse(serialized).has_value());
}

}  // namespace
}  // namespace snd::core
