// Concurrent reader/ingester stress for the service's snapshot path.
// Readers must never block ingestion, never see a half-published epoch, and
// a retained snapshot must stay self-consistent while the world moves on.
// Run under -DSND_SANITIZE=thread to have TSan check the claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/validation_service.h"
#include "util/rng.h"

namespace snd::service {
namespace {

TEST(ServiceStressTest, ConcurrentReadersDuringIngestion) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  ValidationService service({25.0, 2, {}});

  util::Rng rng(7);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 1; id <= 150; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0)});
    live.push_back(id);
  }
  service.seed_topology(initial);
  const auto events = random_events(600, field, std::move(live), 8);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<bool> failed{false};

  const auto reader = [&](std::uint64_t seed) {
    util::Rng local(seed);
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snapshot = service.snapshot();
      // Epochs only move forward.
      if (snapshot->epoch() < last_epoch) failed.store(true);
      last_epoch = snapshot->epoch();
      // A snapshot is internally consistent: a validated neighbor is a
      // tentative neighbor of a node the snapshot knows.
      const NodeId u = static_cast<NodeId>(local.uniform_int(200)) + 1;
      const NodeState* state = snapshot->find(u);
      if (state != nullptr && !state->validated.empty()) {
        const NodeId v = state->validated[local.uniform_int(state->validated.size())];
        if (!snapshot->validate(u, v)) failed.store(true);
        if (!topology::contains(state->neighbors, v)) failed.store(true);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto retained = service.snapshot();  // pin the seed epoch for the whole run
  const std::string retained_json = retained->canonical_json();

  std::vector<std::thread> readers;
  for (std::uint64_t i = 0; i < 4; ++i) {
    readers.emplace_back(reader, util::derive_seed(123, i));
  }

  std::size_t applied = 0;
  for (const TopologyEvent& event : events) {
    if (service.apply(event).ok) ++applied;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(applied, events.size());
  EXPECT_GT(queries.load(), 0u);
  // The pinned snapshot never changed underneath the readers.
  EXPECT_EQ(retained->canonical_json(), retained_json);
  EXPECT_EQ(service.snapshot()->epoch(), retained->epoch() + events.size());
}

TEST(ServiceStressTest, BatchIngestionPublishesOnce) {
  const util::Rect field{{0.0, 0.0}, {80.0, 80.0}};
  ValidationService service({20.0, 1, {}});
  util::Rng rng(3);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 1; id <= 60; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)});
    live.push_back(id);
  }
  service.seed_topology(initial);
  const std::uint64_t before = service.snapshot()->epoch();

  std::atomic<bool> done{false};
  std::atomic<bool> saw_intermediate{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t epoch = service.snapshot()->epoch();
      if (epoch != before && epoch != before + 1) saw_intermediate.store(true);
    }
  });

  const auto events = random_events(200, field, std::move(live), 4);
  EXPECT_EQ(service.apply_all(events), events.size());
  done.store(true, std::memory_order_release);
  watcher.join();

  // apply_all publishes exactly one epoch, so readers can never observe a
  // partially-applied batch.
  EXPECT_FALSE(saw_intermediate.load());
  EXPECT_EQ(service.snapshot()->epoch(), before + 1);
}

TEST(ServiceStressTest, EveryRetainedEpochStaysImmutable) {
  // Each publish hands out a node table whose chunks the next edit must copy
  // before writing. Retaining every epoch and re-serializing all of them at
  // the end catches an edit that writes into a published chunk.
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({25.0, 2, {}});
  util::Rng rng(19);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 1; id <= 120; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0)});
    live.push_back(id);
  }
  ASSERT_TRUE(service.seed_topology(initial).ok);

  std::vector<std::pair<std::shared_ptr<const Snapshot>, std::string>> epochs;
  const auto retain = [&] {
    auto snapshot = service.snapshot();
    std::string json = snapshot->canonical_json();
    epochs.emplace_back(std::move(snapshot), std::move(json));
  };
  retain();

  const auto events = random_events(300, field, std::move(live), 9);
  const TopologyEvent never_live = TopologyEvent::revoke(kNoNode - 1);
  std::size_t next = 0;
  for (std::size_t round = 0; next < events.size(); ++round) {
    if (round % 3 == 2) {
      // A batch with a rejected event in the middle: one publish.
      const std::size_t end = std::min(next + 6, events.size());
      std::vector<TopologyEvent> batch(events.begin() + next, events.begin() + end);
      batch.insert(batch.begin() + batch.size() / 2, never_live);
      EXPECT_EQ(service.apply_all(batch), batch.size() - 1);
      next = end;
    } else {
      ASSERT_TRUE(service.apply(events[next++]).ok);
      // Rejected events publish nothing and must leave the table alone.
      EXPECT_FALSE(service.apply(never_live).ok);
      const NodeId some_live = (*service.snapshot()->nodes().begin()).first;
      EXPECT_FALSE(service.apply(TopologyEvent::deploy(some_live, {1.0, 1.0})).ok);
    }
    retain();
  }

  ASSERT_EQ(epochs.size(), 115u);  // seed + 76 single-event and 38 batch publishes
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto& [snapshot, json] = epochs[i];
    EXPECT_EQ(snapshot->epoch(), epochs.front().first->epoch() + i);
    EXPECT_EQ(snapshot->canonical_json(), json) << "epoch " << snapshot->epoch();
  }
}

}  // namespace
}  // namespace snd::service
