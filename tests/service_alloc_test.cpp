// Heap allocations on the service's ingest path. This binary replaces the
// global operator new with a counting one, so it holds nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
#include <numbers>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/validation_service.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace snd::service {
namespace {

TEST(ServiceAllocationTest, SteadyStateIngestAllocatesNothingPerTouchedNode) {
  // 3,000 nodes at mean tentative degree 16. The first 3,000 events warm
  // the arena's free slots and the scratch lists up to their working sizes;
  // the next 3,000 are counted, around apply() alone.
  constexpr std::size_t kNodes = 3'000;
  constexpr double kRange = 50.0;
  const double width = std::sqrt(kNodes * std::numbers::pi * kRange * kRange / 16.0);
  const util::Rect field{{0.0, 0.0}, {width, width}};
  util::Rng rng(61);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 0; id < kNodes; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
    live.push_back(id);
  }
  ValidationService service({kRange, 2, {}});
  ASSERT_TRUE(service.seed_topology(initial).ok);
  const auto events = random_events(6'000, field, std::move(live), 67);
  for (std::size_t i = 0; i < 3'000; ++i) ASSERT_TRUE(service.apply(events[i]).ok);

  const auto neighbors_of = [&](NodeId id) {
    const NodeState* state = service.snapshot()->find(id);
    return state == nullptr ? topology::NeighborList{} : state->neighbors;
  };
  std::uint64_t counted = 0;
  std::uint64_t touched = 0;
  std::size_t failed = 0;
  for (std::size_t i = 3'000; i < events.size(); ++i) {
    const topology::NeighborList before = neighbors_of(events[i].node);
    const std::uint64_t start = allocations.load(std::memory_order_relaxed);
    failed += service.apply(events[i]).ok ? 0 : 1;
    counted += allocations.load(std::memory_order_relaxed) - start;
    const topology::NeighborList after = neighbors_of(events[i].node);
    topology::NeighborList disc;
    std::set_union(before.begin(), before.end(), after.begin(), after.end(),
                   std::back_inserter(disc));
    touched += disc.size() + 1;
  }
  ASSERT_EQ(failed, 0u);
  const double per_event = static_cast<double>(counted) / 3'000.0;
  const double per_touched = static_cast<double>(counted) / static_cast<double>(touched);
  // What remains is per event, not per node: the published Snapshot and
  // the spatial grid's cells. A copy per touched state would be >= 2 per
  // touched node (its two lists).
  EXPECT_LT(per_event, 3.0) << counted << " allocations";
  EXPECT_LT(per_touched, 0.2) << counted << " allocations over " << touched << " touched";
  std::printf("ingest: %.3f allocations per event, %.4f per touched node (%.1f touched)\n",
              per_event, per_touched, static_cast<double>(touched) / 3'000.0);
}

}  // namespace
}  // namespace snd::service
