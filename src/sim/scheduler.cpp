#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace snd::sim {

EventId Scheduler::schedule_at(Time at, EventAction action) {
  const EventId id = next_id_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    assert(actions_.size() < UINT32_MAX && "more pending events than slot indices");
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back(Entry{at < now_ ? now_ : at, id, slot});
  sift_up(heap_.size() - 1);
  return id;
}

void Scheduler::cancel(EventId id) {
  // Only remember cancellations that can still matter.
  if (id >= next_id_) return;
  if (id < bits_base_) return;  // below the window: provably already fired
  const std::size_t index = static_cast<std::size_t>(id - bits_base_);
  if (index >= cancelled_bits_.capacity()) {
    // Geometric growth keeps repeated worst-case cancels amortized O(1).
    cancelled_bits_.resize(std::max(index + 1, cancelled_bits_.capacity() * 2));
  }
  if (!cancelled_bits_.test(index)) {
    cancelled_bits_.set(index);
    ++cancelled_count_;
    backlog_unverified_ = true;
  }
  // Ids of already-fired events are indistinguishable from pending ones
  // here, but once the set clearly outnumbers the heap the excess must be
  // stale -- sweep it so cancel-after-fire can't grow the set unboundedly.
  if (cancelled_backlog() > heap_.size() + kCancelSweepSlack) sweep_cancelled();
}

bool Scheduler::cancelled_contains(EventId id) const {
  if (id < bits_base_) return false;
  const std::size_t index = static_cast<std::size_t>(id - bits_base_);
  return index < cancelled_bits_.capacity() && cancelled_bits_.test(index);
}

void Scheduler::cancelled_erase(EventId id) {
  // Callers check cancelled_contains first, so the bit exists.
  cancelled_bits_.reset(static_cast<std::size_t>(id - bits_base_));
  --cancelled_count_;
}

void Scheduler::clear_cancelled() {
  cancelled_bits_.resize(0);
  bits_base_ = next_id_;
  cancelled_count_ = 0;
  backlog_unverified_ = false;
}

void Scheduler::sweep_cancelled() const {
  // Rebase the window on the oldest pending id: every bit below it is a
  // stale cancel-after-fire record, and rebuilding from the heap keeps
  // only cancels that can still suppress an event.
  EventId base = next_id_;
  for (const Entry& entry : heap_) base = std::min(base, entry.id);
  util::BitSet live;
  std::uint64_t count = 0;
  for (const Entry& entry : heap_) {
    if (!cancelled_contains(entry.id)) continue;
    const std::size_t index = static_cast<std::size_t>(entry.id - base);
    if (index >= live.capacity()) live.resize(index + 1);
    live.set(index);
    ++count;
  }
  cancelled_bits_ = std::move(live);
  bits_base_ = base;
  cancelled_count_ = count;
  backlog_unverified_ = false;
}

std::uint64_t Scheduler::pending() const {
  // After a sweep every recorded id is in the heap, and pops keep it so.
  if (backlog_unverified_) sweep_cancelled();
  assert(cancelled_backlog() <= heap_.size());
  return static_cast<std::uint64_t>(heap_.size()) - cancelled_backlog();
}

void Scheduler::set_next_event_id(EventId id) {
  assert(heap_.empty() && "set_next_event_id requires an empty queue");
  next_id_ = std::max(next_id_, id);
  clear_cancelled();
}

// Both sifts percolate a hole: the moving key is held aside and written
// once at its final index. Keys are 24-byte PODs, so each level costs one
// plain copy and no call through the action's type-erased relocate.

void Scheduler::sift_up(std::size_t index) {
  const Entry moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!earlier(moving, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = moving;
}

void Scheduler::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  const Entry moving = heap_[index];
  for (;;) {
    const std::size_t first = kArity * index + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = moving;
}

void Scheduler::pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::drop_cancelled_head() {
  if (heap_.empty()) {
    // Nothing can be pending: any recorded cancellations are stale
    // (cancel-after-fire) and can be forgotten.
    clear_cancelled();
    return;
  }
  while (!heap_.empty() && cancelled_backlog() != 0 && cancelled_contains(heap_.front().id)) {
    cancelled_erase(heap_.front().id);
    const std::uint32_t slot = heap_.front().slot;
    actions_[slot] = nullptr;
    free_slots_.push_back(slot);
    pop_root();
  }
}

bool Scheduler::pop_next(Entry& out) {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  out = heap_.front();
  pop_root();
  return true;
}

bool Scheduler::peek(Time& at) {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  at = heap_.front().at;
  return true;
}

bool Scheduler::step() {
  Entry entry;
  if (!pop_next(entry)) return false;
  now_ = entry.at;
  // Moved out before the call: the action may schedule events, which can
  // reuse this slot or grow (and so relocate) the pool.
  EventAction action = std::move(actions_[entry.slot]);
  free_slots_.push_back(entry.slot);
  action();
  ++executed_;
  return true;
}

Time Scheduler::run_until(Time deadline) {
  Time next;
  while (peek(next)) {
    if (next > deadline) return now_;
    step();
  }
  return now_;
}

std::string Time::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds());
  return buf;
}

}  // namespace snd::sim
