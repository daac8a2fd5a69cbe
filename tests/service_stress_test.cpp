// Concurrent reader/ingester stress for the service's snapshot path.
// Readers must never block ingestion, never see a half-published epoch, and
// a retained snapshot must stay self-consistent while the world moves on.
// Run under -DSND_SANITIZE=thread to have TSan check the claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/node_table.h"
#include "service/validation_service.h"
#include "util/rng.h"

namespace snd::service {
namespace {

std::vector<std::pair<NodeId, util::Vec2>> uniform_nodes(std::size_t count, double width,
                                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<NodeId, util::Vec2>> nodes;
  for (std::size_t i = 1; i <= count; ++i) {
    nodes.emplace_back(static_cast<NodeId>(i),
                       util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
  }
  return nodes;
}

std::vector<NodeId> ids_of(const std::vector<std::pair<NodeId, util::Vec2>>& nodes) {
  std::vector<NodeId> ids;
  for (const auto& [id, position] : nodes) ids.push_back(id);
  return ids;
}

template <typename T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_int(i)]);
  }
}

/// Releases `held` one element at a time, in shuffled order.
template <typename T>
void release_shuffled(std::vector<T>& held, util::Rng& rng) {
  shuffle(held, rng);
  while (!held.empty()) held.pop_back();
}

/// Applies `event` and returns how many states it could have replaced: e
/// and every node within R of e's old or new position.
std::size_t apply_counting_touched(ValidationService& service, const TopologyEvent& event) {
  const auto neighbors_of = [&](NodeId id) {
    const NodeState* state = service.snapshot()->find(id);
    return state == nullptr ? topology::NeighborList{} : state->neighbors;
  };
  const topology::NeighborList before = neighbors_of(event.node);
  EXPECT_TRUE(service.apply(event).ok);
  const topology::NeighborList after = neighbors_of(event.node);
  topology::NeighborList disc;
  std::set_union(before.begin(), before.end(), after.begin(), after.end(),
                 std::back_inserter(disc));
  return disc.size() + 1;
}

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

TEST(ServiceStressTest, RetainedEpochsSurviveShuffledRelease) {
  // Every 7th epoch is retained for the whole run; the others are held in
  // groups of 32 and dropped in shuffled order, so unpins arrive out of
  // epoch order and leave holes in the pinned set.
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = uniform_nodes(150, 150.0, 23);
  ASSERT_TRUE(service.seed_topology(initial).ok);
  util::Rng rng(31);
  const auto events = random_events(2'300, field, ids_of(initial), 29);

  std::vector<std::pair<std::shared_ptr<const Snapshot>, std::string>> retained;
  std::vector<std::shared_ptr<const Snapshot>> held;
  for (std::size_t i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(service.apply(events[i]).ok);
    auto snapshot = service.snapshot();
    if (snapshot->epoch() % 7 == 0) {
      std::string json = snapshot->canonical_json();
      retained.emplace_back(std::move(snapshot), std::move(json));
    } else {
      held.push_back(std::move(snapshot));
      if (held.size() == 32) release_shuffled(held, rng);
    }
  }
  release_shuffled(held, rng);
  ASSERT_EQ(retained.size(), 285u);  // epochs 7, 14, ..., 1995
  for (const auto& [snapshot, json] : retained) {
    EXPECT_EQ(snapshot->canonical_json(), json) << "epoch " << snapshot->epoch();
  }
  EXPECT_GT(service.arena_usage().retired_states, 0u);

  // With every retained epoch gone, the next publish recycles all they kept:
  // from then on the arena holds the live states plus at most what one
  // event replaced, event after event.
  release_shuffled(retained, rng);
  for (std::size_t i = 2'000; i < events.size(); ++i) {
    const std::size_t touched = apply_counting_touched(service, events[i]);
    const ArenaUsage usage = service.arena_usage();
    ASSERT_EQ(usage.live_states, service.node_count()) << "event " << i;
    ASSERT_LE(usage.retired_states, touched) << "event " << i;
  }
  EXPECT_EQ(service.snapshot()->canonical_json(), service.rebuild()->canonical_json());
}

TEST(ServiceStressTest, RecycledSlotsNeverReachAPinnedEpoch) {
  // Each epoch is held for a random 1 to 48 further events and checked when
  // dropped. Slots of epochs older than every held one are recycled under
  // the held ones all along, so a slot recycled too early shows up here.
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({25.0, 2, {}});
  const auto initial = uniform_nodes(150, 150.0, 41);
  ASSERT_TRUE(service.seed_topology(initial).ok);
  util::Rng rng(43);
  struct Held {
    std::size_t until;
    std::shared_ptr<const Snapshot> snapshot;
    std::string json;
  };
  std::vector<Held> held;
  // Most slots one event can retire: the chunks it copies plus the states
  // it touches.
  std::uint64_t most_retired = 0;
  const auto events = random_events(1'500, field, ids_of(initial), 47);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t copies = service.table_copies();
    const std::size_t touched = apply_counting_touched(service, events[i]);
    most_retired = std::max(most_retired, service.table_copies() - copies + touched);
    auto snapshot = service.snapshot();
    std::string json = snapshot->canonical_json();
    held.push_back({i + 1 + rng.uniform_int(48), std::move(snapshot), std::move(json)});
    shuffle(held, rng);
    for (std::size_t k = held.size(); k-- > 0;) {
      if (held[k].until > i) continue;
      ASSERT_EQ(held[k].snapshot->canonical_json(), held[k].json)
          << "epoch " << held[k].snapshot->epoch() << " at event " << i;
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  for (const Held& h : held) EXPECT_EQ(h.snapshot->canonical_json(), h.json);
  // Recycling kept up: an epoch held 48 events keeps at most the slots of
  // the 49 batches sealed after it, plus the open one, from recycling.
  const ArenaUsage usage = service.arena_usage();
  EXPECT_GT(usage.peak_retired_slots, 0u);
  EXPECT_LE(usage.peak_retired_slots, 50 * most_retired);
}

TEST(ServiceStressTest, SnapshotOutlivesItsService) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  const auto initial = uniform_nodes(100, 120.0, 53);
  std::shared_ptr<const Snapshot> kept;
  std::shared_ptr<const Snapshot> rebuilt;
  std::string json;
  {
    ValidationService service({25.0, 2, {}});
    ASSERT_TRUE(service.seed_topology(initial).ok);
    const auto events = random_events(200, field, ids_of(initial), 59);
    for (std::size_t i = 0; i < 100; ++i) ASSERT_TRUE(service.apply(events[i]).ok);
    kept = service.snapshot();
    rebuilt = service.rebuild();
    json = kept->canonical_json();
    ASSERT_EQ(rebuilt->canonical_json(), json);
    // Later epochs retire what `kept` reaches; it must still hold it.
    for (std::size_t i = 100; i < events.size(); ++i) ASSERT_TRUE(service.apply(events[i]).ok);
  }
  EXPECT_EQ(kept->canonical_json(), json);
  EXPECT_EQ(rebuilt->canonical_json(), json);
  // The last owners let go on another thread: the unpin and the arena's
  // destruction happen there.
  std::thread reader([kept = std::move(kept), rebuilt = std::move(rebuilt), &json]() mutable {
    EXPECT_EQ(kept->digest(), rebuilt->digest());
    EXPECT_EQ(kept->canonical_json(), json);
    kept.reset();
    rebuilt.reset();
  });
  reader.join();
}

}  // namespace
}  // namespace snd::service
