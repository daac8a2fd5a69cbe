#include "core/validation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace snd::core {
namespace {

TEST(ThresholdTest, ExactBoundary) {
  const topology::NeighborList nu = {1, 2, 3, 4};
  const topology::NeighborList nv = {2, 3, 4, 5};
  EXPECT_TRUE(meets_threshold(nu, nv, 2));   // |∩| = 3 >= 3
  EXPECT_FALSE(meets_threshold(nu, nv, 3));  // |∩| = 3 < 4
}

TEST(ThresholdTest, ZeroThresholdNeedsOneCommon) {
  EXPECT_TRUE(meets_threshold({1}, {1}, 0));
  EXPECT_FALSE(meets_threshold({1}, {2}, 0));
}

topology::NeighborList random_sorted_list(util::Rng& rng, std::size_t universe,
                                          double density) {
  topology::NeighborList list;
  for (NodeId id = 0; id < universe; ++id) {
    if (rng.uniform(0.0, 1.0) < density) list.push_back(id);
  }
  return list;
}

TEST(ThresholdTest, EarlyExitAgreesWithFullIntersectionCount) {
  // meets_threshold stops at the (t+1)-th common element; its verdict must
  // be exactly the full count's, for every list shape and threshold.
  util::Rng rng(2009);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(rng.uniform(0.0, 80.0));
    const auto a = random_sorted_list(rng, universe, rng.uniform(0.0, 1.0));
    const auto b = random_sorted_list(rng, universe, rng.uniform(0.0, 1.0));
    const std::size_t shorter = std::min(a.size(), b.size());
    const std::size_t common = topology::intersection_size(a, b);
    // t from 0 past min(|a|, |b|), where the verdict is false whatever the
    // lists hold.
    for (std::size_t t = 0; t <= shorter + 2; ++t) {
      const bool expected = common >= t + 1;
      ASSERT_EQ(meets_threshold(a, b, t), expected)
          << "trial " << trial << " t=" << t << " |a|=" << a.size() << " |b|=" << b.size();
      ASSERT_EQ(meets_threshold(b, a, t), expected);
      accepted += expected ? 1 : 0;
    }
  }
  EXPECT_GT(accepted, 1000u);  // both verdicts are well exercised

  const topology::NeighborList empty;
  const topology::NeighborList some = {1, 4, 9};
  for (std::size_t t : {0u, 1u, 5u}) {
    EXPECT_FALSE(meets_threshold(empty, empty, t));
    EXPECT_FALSE(meets_threshold(empty, some, t));
    EXPECT_FALSE(meets_threshold(some, empty, t));
  }
  EXPECT_TRUE(meets_threshold(some, some, 0));
  EXPECT_TRUE(meets_threshold(some, some, 2));   // t + 1 == |a| == |b|
  EXPECT_FALSE(meets_threshold(some, some, 3));  // t == min(|a|, |b|)
  EXPECT_TRUE(meets_threshold({9}, some, 0));    // the match is the last element
  EXPECT_FALSE(meets_threshold({10}, some, 0));
}

TEST(CommonNeighborValidatorTest, ValidatesWithEnoughOverlap) {
  CommonNeighborValidator validator(2);
  topology::Digraph g;
  for (NodeId c : {10u, 11u, 12u}) {
    g.add_edge(1, c);
    g.add_edge(2, c);
  }
  EXPECT_TRUE(validator.validate(1, 2, g));
}

TEST(CommonNeighborValidatorTest, RejectsInsufficientOverlap) {
  CommonNeighborValidator validator(2);
  topology::Digraph g;
  g.add_edge(1, 10);
  g.add_edge(2, 10);
  g.add_edge(1, 11);
  g.add_edge(2, 12);
  EXPECT_FALSE(validator.validate(1, 2, g));
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentSizeIsTPlus3) {
  EXPECT_EQ(CommonNeighborValidator(0).minimum_deployment_size(), 3u);
  EXPECT_EQ(CommonNeighborValidator(10).minimum_deployment_size(), 13u);
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentWitnessValidates) {
  for (std::size_t t : {0u, 1u, 5u, 20u}) {
    CommonNeighborValidator validator(t);
    const auto dep = validator.minimum_deployment(100);
    EXPECT_EQ(dep.graph.node_count(), validator.minimum_deployment_size()) << "t=" << t;
    EXPECT_TRUE(validator.validate(dep.u, dep.w, dep.graph)) << "t=" << t;
  }
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentIsMinimal) {
  // Removing any common neighbor from the witness graph breaks validation.
  CommonNeighborValidator validator(3);
  auto dep = validator.minimum_deployment(1);
  dep.graph.remove_node(3);  // first common neighbor id = first_id + 2
  EXPECT_FALSE(validator.validate(dep.u, dep.w, dep.graph));
}

// Definition 3's isomorphism-invariance: for random graphs B and random
// injective relabelings f, F(u, v, B) == F(f(u), f(v), B_f).
class IsomorphismInvarianceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsomorphismInvarianceTest, RelabelingPreservesDecisions) {
  util::Rng rng(GetParam());
  const std::size_t n = 12;
  topology::Digraph b;
  for (NodeId u = 1; u <= n; ++u) {
    b.add_node(u);
    for (NodeId v = 1; v <= n; ++v) {
      if (u != v && rng.chance(0.35)) b.add_edge(u, v);
    }
  }

  // Random permutation of 1..n shifted into a disjoint ID range.
  std::vector<NodeId> image(n);
  for (std::size_t i = 0; i < n; ++i) image[i] = static_cast<NodeId>(1000 + i);
  rng.shuffle(image.begin(), image.end());
  const auto f = [&image](NodeId x) { return image[x - 1]; };
  const topology::Digraph bf = b.relabeled(f);

  CommonNeighborValidator validator(1 + rng.uniform_int(3));
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = 1; v <= n; ++v) {
      if (u == v) continue;
      EXPECT_EQ(validator.validate(u, v, b), validator.validate(f(u), f(v), bf))
          << "pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, IsomorphismInvarianceTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(CommonNeighborValidatorTest, NameIncludesThreshold) {
  EXPECT_EQ(CommonNeighborValidator(7).name(), "common-neighbor(t=7)");
}

}  // namespace
}  // namespace snd::core
