#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace snd::sim {
namespace {

TEST(TimeTest, Construction) {
  EXPECT_EQ(Time::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ(Time::microseconds(1).ns(), 1'000);
  EXPECT_EQ(Time::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Time::zero().ns(), 0);
}

TEST(TimeTest, ArithmeticAndComparison) {
  const Time a = Time::milliseconds(5);
  const Time b = Time::milliseconds(3);
  EXPECT_EQ((a + b).ns(), Time::milliseconds(8).ns());
  EXPECT_EQ((a - b).ns(), Time::milliseconds(2).ns());
  EXPECT_LT(b, a);
  EXPECT_GT(Time::infinity(), a);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(Time::seconds(2.5).to_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(Time::milliseconds(1500).to_milliseconds(), 1500.0);
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(Time::milliseconds(30), [&] { order.push_back(3); });
  scheduler.schedule_at(Time::milliseconds(10), [&] { order.push_back(1); });
  scheduler.schedule_at(Time::milliseconds(20), [&] { order.push_back(2); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SameTimeFifoBySchedulingOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule_at(Time::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  scheduler.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler scheduler;
  Time observed;
  scheduler.schedule_at(Time::milliseconds(42), [&] { observed = scheduler.now(); });
  scheduler.run();
  EXPECT_EQ(observed, Time::milliseconds(42));
  EXPECT_EQ(scheduler.now(), Time::milliseconds(42));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler scheduler;
  scheduler.schedule_at(Time::milliseconds(10), [&] {
    // From inside an event at t=10, scheduling for t=5 must not rewind.
    scheduler.schedule_at(Time::milliseconds(5), [&] {
      EXPECT_GE(scheduler.now(), Time::milliseconds(10));
    });
  });
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 2u);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler scheduler;
  bool ran = false;
  const EventId id = scheduler.schedule_at(Time::milliseconds(1), [&] { ran = true; });
  scheduler.cancel(id);
  scheduler.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, CancelAfterExecutionIsNoop) {
  Scheduler scheduler;
  const EventId id = scheduler.schedule_at(Time::zero(), [] {});
  scheduler.run();
  scheduler.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  int count = 0;
  scheduler.schedule_at(Time::milliseconds(10), [&] { ++count; });
  scheduler.schedule_at(Time::milliseconds(20), [&] { ++count; });
  scheduler.schedule_at(Time::milliseconds(30), [&] { ++count; });
  scheduler.run_until(Time::milliseconds(20));
  EXPECT_EQ(count, 2);  // the t=20 event runs; t=30 does not
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.run();
  EXPECT_EQ(count, 3);
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
  Scheduler scheduler;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      scheduler.schedule_at(scheduler.now() + Time::milliseconds(1), recurse);
    }
  };
  scheduler.schedule_at(Time::zero(), recurse);
  scheduler.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(scheduler.now(), Time::milliseconds(4));
}

TEST(SchedulerTest, StepReturnsFalseWhenEmpty) {
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.step());
  scheduler.schedule_at(Time::zero(), [] {});
  EXPECT_TRUE(scheduler.step());
  EXPECT_FALSE(scheduler.step());
}

TEST(SchedulerTest, PendingCountsUnexecuted) {
  Scheduler scheduler;
  EXPECT_TRUE(scheduler.empty());
  const EventId a = scheduler.schedule_at(Time::milliseconds(1), [] {});
  scheduler.schedule_at(Time::milliseconds(2), [] {});
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.cancel(a);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(SchedulerTest, CancelAfterFireStaysBounded) {
  Scheduler scheduler;
  std::vector<EventId> fired;
  for (int i = 0; i < 512; ++i) fired.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  const EventId live = scheduler.schedule_at(Time::milliseconds(1), [] {});
  scheduler.schedule_at(Time::milliseconds(2), [] {});
  scheduler.schedule_at(Time::milliseconds(3), [] {});

  // Cancelling ids that already fired must not accumulate: before the
  // sweep existed, 512 stale ids sat in the side set forever and pending()
  // saturated to zero despite three live events.
  for (const EventId id : fired) scheduler.cancel(id);
  EXPECT_LE(scheduler.cancelled_backlog(), 3u + 65u);
  EXPECT_EQ(scheduler.pending(), 3u);

  // Live cancellation still works with the sweep interleaved.
  scheduler.cancel(live);
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 514u);
}

TEST(SchedulerTest, TypicalEventActionStaysInline) {
  // The whole point of the SBO action type: simulator-sized captures must
  // not reach the heap fallback.
  Scheduler scheduler;
  std::array<std::uint8_t, 64> capture{};
  capture[0] = 42;
  int seen = 0;
  EventAction action = [capture, &seen] { seen = capture[0]; };
  EXPECT_FALSE(action.heap_allocated());
  scheduler.schedule_at(Time::zero(), std::move(action));
  scheduler.run();
  EXPECT_EQ(seen, 42);
}

TEST(SchedulerTest, OversizedCaptureFallsBackToHeapAndStillRuns) {
  Scheduler scheduler;
  std::array<std::uint8_t, 256> blob{};
  blob[0] = 7;
  int seen = 0;
  EventAction action = [blob, &seen] { seen = blob[0]; };
  EXPECT_TRUE(action.heap_allocated());
  scheduler.schedule_at(Time::zero(), std::move(action));
  scheduler.run();
  EXPECT_EQ(seen, 7);
}

TEST(SchedulerTest, CancelReleasesActionResources) {
  // A cancelled event's capture must be destroyed, not leaked in the queue.
  Scheduler scheduler;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id =
      scheduler.schedule_at(Time::milliseconds(1), [token = std::move(token)] { (void)token; });
  scheduler.cancel(id);
  scheduler.run();
  EXPECT_FALSE(watch.lock());
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, DestructionReleasesUnrunActions) {
  // run_until() can leave events queued forever; destroying the scheduler
  // must release their captures (inline and heap-fallback alike).
  auto small = std::make_shared<int>(1);
  auto large = std::make_shared<int>(2);
  std::weak_ptr<int> watch_small = small;
  std::weak_ptr<int> watch_large = large;
  {
    Scheduler scheduler;
    scheduler.schedule_at(Time::milliseconds(1), [small = std::move(small)] { (void)small; });
    std::array<std::uint8_t, 256> pad{};
    scheduler.schedule_at(Time::milliseconds(2),
                          [large = std::move(large), pad] { (void)pad; });
    scheduler.run_until(Time::zero());
    EXPECT_TRUE(watch_small.lock());
    EXPECT_TRUE(watch_large.lock());
  }
  EXPECT_FALSE(watch_small.lock());
  EXPECT_FALSE(watch_large.lock());
}

TEST(SchedulerTest, MoveOnlyCapturesSchedulable) {
  // EventAction is move-only, so uniquely-owned captures work directly.
  Scheduler scheduler;
  auto value = std::make_unique<int>(11);
  int seen = 0;
  scheduler.schedule_at(Time::zero(), [value = std::move(value), &seen] { seen = *value; });
  scheduler.run();
  EXPECT_EQ(seen, 11);
}

TEST(SchedulerTest, SameTimeOrderSurvivesCancelSweeps) {
  // Regression pin: the lazy-cancel sweep compacts the heap, and a sweep
  // that rebuilt it without the (time, id) tie-break would reorder
  // same-timestamp events. Interleave a same-timestamp batch with enough
  // stale cancels to force several sweeps (slack is 64) and check FIFO
  // order survives, including a live cancellation in the middle.
  Scheduler scheduler;
  std::vector<EventId> stale;
  for (int i = 0; i < 200; ++i) stale.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  std::vector<int> order;
  std::vector<EventId> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(
        scheduler.schedule_at(Time::milliseconds(7), [&order, i] { order.push_back(i); }));
  }
  for (const EventId id : stale) scheduler.cancel(id);  // triggers the sweeps
  for (int i = 16; i < 32; ++i) {
    scheduler.schedule_at(Time::milliseconds(7), [&order, i] { order.push_back(i); });
  }
  scheduler.cancel(batch[5]);
  scheduler.run();

  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i != 5) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, EventIdsSurviveCrossingThirtyTwoBits) {
  // Regression pin for the >= 10^8-event overflow audit: ids, ordering,
  // cancellation, and the pending count must all behave identically when
  // the id counter crosses 2^32 -- a million-node run gets there. The hook
  // fast-forwards the counter so the test doesn't schedule 4 billion
  // events for real.
  Scheduler scheduler;
  scheduler.set_next_event_id((std::uint64_t{1} << 32) - 2);

  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    // Same timestamp: execution order is the id tie-break, which must be
    // monotone across the 2^32 boundary (no truncation anywhere).
    ids.push_back(
        scheduler.schedule_at(Time::milliseconds(5), [&order, i] { order.push_back(i); }));
  }
  EXPECT_LT(ids[0], std::uint64_t{1} << 32);
  EXPECT_GT(ids.back(), std::uint64_t{1} << 32);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[i - 1] + 1);

  // Cancel one id on each side of the boundary.
  scheduler.cancel(ids[1]);
  scheduler.cancel(ids[4]);
  EXPECT_EQ(scheduler.pending(), 4u);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
}

TEST(SchedulerTest, SetNextEventIdOnlyMovesForward) {
  Scheduler scheduler;
  scheduler.set_next_event_id(1000);
  scheduler.set_next_event_id(10);  // ignored: ids must stay unique
  const EventId id = scheduler.schedule_at(Time::zero(), [] {});
  EXPECT_GE(id, 1000u);
}

TEST(SchedulerTest, CancelWindowSemantics) {
  // The bitset cancel window: which events fire, pending counts, the
  // bounded cancel-after-fire backlog, and double-cancel counting once.
  Scheduler scheduler;
  std::vector<EventId> fired;
  for (int i = 0; i < 300; ++i) fired.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  std::vector<int> order;
  std::vector<EventId> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(
        scheduler.schedule_at(Time::milliseconds(1), [&order, i] { order.push_back(i); }));
  }
  for (const EventId id : fired) scheduler.cancel(id);  // stale: must sweep, not leak
  EXPECT_LE(scheduler.cancelled_backlog(), 8u + 65u);
  scheduler.cancel(live[2]);
  scheduler.cancel(live[2]);  // double-cancel counts once
  scheduler.cancel(live[6]);
  EXPECT_EQ(scheduler.pending(), 6u);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5, 7}));
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  Scheduler scheduler;
  std::vector<std::int64_t> fired;
  // Deliberately scramble insertion order with a fixed stride pattern.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t at = (i * 7919) % 1000;
    scheduler.schedule_at(Time::milliseconds(at), [&fired, at] { fired.push_back(at); });
  }
  scheduler.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 1000u);
}

// -- Reference model ----------------------------------------------------------

/// Drives a Scheduler and a std::set<(at, id)> model with the same seeded
/// operations. Fired actions advance the model themselves (checking that
/// the event firing is the model's minimum), then schedule and cancel
/// further events through the same harness, so nested operations hit both
/// sides identically.
class ModelHarness {
 public:
  explicit ModelHarness(std::uint64_t seed) : rng_(seed) {}

  /// One random top-level operation, then the full state comparison.
  void random_operation() {
    const std::uint64_t pick = rng_.uniform_int(std::uint64_t{100});
    if (pick < 38) {
      schedule(random_time());
    } else if (pick < 40) {
      // A burst deepens the heap well past a handful of levels.
      for (int i = 0; i < 64; ++i) schedule(random_time());
    } else if (pick < 60) {
      cancel(random_cancel_target());
    } else if (pick < 85) {
      const std::uint64_t before = model_executed_;
      const bool stepped = real_.step();
      EXPECT_EQ(stepped, before != model_executed_);
      EXPECT_LE(model_executed_, before + 1);
    } else {
      const Time deadline = now_ + Time::nanoseconds(rng_.uniform_int(-5, 40));
      const Time returned = real_.run_until(deadline);
      EXPECT_EQ(returned, now_);
      EXPECT_TRUE(model_.empty() || model_.begin()->first > deadline.ns());
    }
    expect_matches_model();
  }

  void expect_matches_model() const {
    EXPECT_EQ(real_.now(), now_);
    EXPECT_EQ(real_.pending(), model_.size());
    EXPECT_EQ(real_.empty(), model_.empty());
    EXPECT_EQ(real_.executed(), model_executed_);
    EXPECT_EQ(order_mismatches_, 0u);
  }

  [[nodiscard]] std::uint64_t fired() const { return model_executed_; }
  [[nodiscard]] std::uint64_t nested_cancels() const { return nested_cancels_; }

 private:
  /// Times around the clock: up to 5 ns in the past (clamped to now) and
  /// a narrow future window, so equal timestamps are common.
  Time random_time() { return now_ + Time::nanoseconds(rng_.uniform_int(-5, 30)); }

  void schedule(Time at) {
    // Ids are issued in sequence (checked below), so next_id_ is this
    // event's id.
    const EventId id = real_.schedule_at(at, [this, self = next_id_] { fire(self); });
    EXPECT_EQ(id, next_id_);
    next_id_ = id + 1;
    model_.emplace(std::max(at, now_).ns(), id);
  }

  void cancel(EventId id) {
    real_.cancel(id);
    for (auto it = model_.begin(); it != model_.end(); ++it) {
      if (it->second == id) {
        model_.erase(it);
        retired_.push_back(id);
        return;
      }
    }
  }

  /// Pending, head, already fired or cancelled, or never issued.
  EventId random_cancel_target() {
    const std::uint64_t kind = rng_.uniform_int(std::uint64_t{4});
    if (kind == 0 && !model_.empty()) {
      return std::next(model_.begin(),
                       static_cast<std::ptrdiff_t>(rng_.uniform_int(model_.size())))
          ->second;
    }
    if (kind == 1 && !model_.empty()) return model_.begin()->second;
    if (kind == 2 && !retired_.empty()) return retired_[rng_.uniform_int(retired_.size())];
    return next_id_ + rng_.uniform_int(std::uint64_t{3});
  }

  void fire(EventId self) {
    if (model_.empty() || model_.begin()->second != self ||
        model_.begin()->first != real_.now().ns()) {
      ++order_mismatches_;
    } else {
      model_.erase(model_.begin());
    }
    now_ = real_.now();
    ++model_executed_;
    retired_.push_back(self);
    // Nested work: mean 0.7 children per fire keeps every run finite.
    const std::uint64_t roll = rng_.uniform_int(std::uint64_t{10});
    if (roll >= 5) schedule(random_time());
    if (roll >= 8) schedule(random_time());
    if (rng_.chance(0.3)) {
      cancel(random_cancel_target());
      ++nested_cancels_;
    }
  }

  Scheduler real_;
  util::Rng rng_;
  std::set<std::pair<std::int64_t, EventId>> model_;
  std::vector<EventId> retired_;
  EventId next_id_ = 1;
  Time now_ = Time::zero();
  std::uint64_t model_executed_ = 0;
  std::uint64_t order_mismatches_ = 0;
  std::uint64_t nested_cancels_ = 0;
};

TEST(SchedulerModelTest, RandomOperationsMatchOrderedSetModel) {
  for (const std::uint64_t seed : {1u, 2u}) {
    ModelHarness harness(seed);
    for (int op = 0; op < 12'000; ++op) {
      harness.random_operation();
      if (::testing::Test::HasFailure()) FAIL() << "seed " << seed << ", operation " << op;
    }
    EXPECT_GT(harness.fired(), 5'000u);
    EXPECT_GT(harness.nested_cancels(), 500u);
  }
}

// -- Relocation bound ---------------------------------------------------------

struct MoveLog {
  int moves = 0;
  int copies = 0;
  int moves_at_call = -1;
};

/// Callable that counts its own moves and copies.
struct CountedAction {
  MoveLog* log;
  explicit CountedAction(MoveLog* l) : log(l) {}
  CountedAction(const CountedAction& other) : log(other.log) { ++log->copies; }
  CountedAction(CountedAction&& other) noexcept : log(other.log) { ++log->moves; }
  CountedAction& operator=(const CountedAction&) = delete;
  CountedAction& operator=(CountedAction&&) = delete;
  ~CountedAction() = default;
  void operator()() const { log->moves_at_call = log->moves; }
};

/// Moves of one action between schedule_at and its invocation, queued
/// mid-way through `depth` other events. One step runs first so the action
/// lands in a recycled slot rather than in a growing pool (pool growth
/// relocates every action, amortized O(1) per event over a run).
MoveLog moves_at_depth(std::size_t depth) {
  Scheduler scheduler;
  for (std::size_t i = 0; i < depth; ++i) {
    scheduler.schedule_at(Time::nanoseconds(static_cast<std::int64_t>(1 + (i * 7919) % depth)),
                          [] {});
  }
  scheduler.step();
  MoveLog log;
  scheduler.schedule_at(Time::nanoseconds(static_cast<std::int64_t>(depth / 2)),
                        CountedAction(&log));
  scheduler.run();
  return log;
}

TEST(SchedulerRelocationTest, QueuedActionMovesAConstantNumberOfTimes) {
  // Heap keys are sifted, actions are not: from schedule_at to the call an
  // action is moved into the EventAction parameter, into its slot, and out
  // for the call, however deep the queue.
  const MoveLog shallow = moves_at_depth(10);
  const MoveLog deep = moves_at_depth(200'000);
  EXPECT_EQ(shallow.copies, 0);
  EXPECT_EQ(deep.copies, 0);
  EXPECT_EQ(shallow.moves_at_call, deep.moves_at_call);
  EXPECT_GE(shallow.moves_at_call, 1);
  EXPECT_LE(shallow.moves_at_call, 3);
}

}  // namespace
}  // namespace snd::sim
