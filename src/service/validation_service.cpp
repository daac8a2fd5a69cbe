#include "service/validation_service.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/commitment.h"
#include "core/validation.h"

namespace snd::service {

namespace {

/// Packs the two signed cell coordinates (int32 range, see
/// SpatialGrid::indexable) into one map key.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) {
  const auto ux = static_cast<std::uint32_t>(cx);
  const auto uy = static_cast<std::uint32_t>(cy);
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

std::int64_t cell_coord(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

/// Sorted-list insert/erase returning whether the list changed.
bool insert_value(topology::NeighborList& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  return true;
}

bool erase_value(topology::NeighborList& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  return true;
}

/// Copies `from` into `to`. When `to` must grow, it grows to twice what the
/// copy needs (plus a spliced-in id), so a recycled slot's list soon fits
/// whatever the next node it holds brings.
void assign_list(topology::NeighborList& to, const topology::NeighborList& from) {
  if (to.capacity() < from.size() + 1) {
    to.clear();
    to.reserve(2 * (from.size() + 1));
  }
  to.assign(from.begin(), from.end());
}

ApplyResult unindexable(std::string_view what, NodeId id) {
  return ApplyResult::failure(std::string(what) + ": node " + std::to_string(id) +
                              " position is not finite or beyond the grid's int32 cell range");
}

}  // namespace

bool SpatialGrid::indexable(util::Vec2 position) const {
  // A 5x5 block around the cell, plus one cell of rounding slack in the
  // disc bounds; NaN and infinities fail every comparison.
  constexpr double kLo = std::numeric_limits<std::int32_t>::min() + 3.0;
  constexpr double kHi = std::numeric_limits<std::int32_t>::max() - 3.0;
  const double cx = std::floor(position.x / cell_);
  const double cy = std::floor(position.y / cell_);
  return cx >= kLo && cx <= kHi && cy >= kLo && cy <= kHi;
}

void SpatialGrid::insert(NodeId id, util::Vec2 position) {
  cells_[cell_key(position)].push_back({id, position});
}

void SpatialGrid::erase(NodeId id, util::Vec2 position) {
  const auto cell = cells_.find(cell_key(position));
  if (cell == cells_.end()) return;
  std::vector<Entry>& bucket = cell->second;
  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [id](const Entry& entry) { return entry.id == id; });
  if (it != bucket.end()) bucket.erase(it);
  if (bucket.empty()) cells_.erase(cell);
}

std::uint64_t SpatialGrid::cell_key(util::Vec2 position) const {
  return pack_cell(cell_coord(position.x, cell_), cell_coord(position.y, cell_));
}

void SpatialGrid::query_disc(util::Vec2 center, double radius,
                             std::vector<NodeId>& out) const {
  const double r2 = radius * radius;
  const std::int64_t x_lo = cell_coord(center.x - radius, cell_);
  const std::int64_t x_hi = cell_coord(center.x + radius, cell_);
  const std::int64_t y_lo = cell_coord(center.y - radius, cell_);
  const std::int64_t y_hi = cell_coord(center.y + radius, cell_);
  out.clear();
  for (std::int64_t cx = x_lo; cx <= x_hi; ++cx) {
    for (std::int64_t cy = y_lo; cy <= y_hi; ++cy) {
      const auto cell = cells_.find(pack_cell(cx, cy));
      if (cell == cells_.end()) continue;
      for (const Entry& entry : cell->second) {
        if (util::distance_squared(entry.position, center) <= r2) out.push_back(entry.id);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

ValidationService::ValidationService(ServiceConfig config)
    : config_(config), grid_(config.radio_range), arena_(std::make_shared<NodeArena>()) {
  current_ = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                              config_.radio_range, table_, arena_);
}

void ValidationService::derive_neighbors(NodeId id, util::Vec2 position,
                                         topology::NeighborList& out) const {
  grid_.query_disc(position, config_.radio_range, out);
  // query_disc includes the node itself when indexed; N(u) excludes u.
  const auto self = std::lower_bound(out.begin(), out.end(), id);
  if (self != out.end() && *self == id) out.erase(self);
}

std::uint64_t ValidationService::derive_table(
    std::span<const std::pair<NodeId, util::Vec2>> nodes, NodeTable::Editor& table) const {
  std::vector<std::pair<NodeId, std::uint32_t>> slots;
  slots.reserve(nodes.size());
  for (const auto& [id, position] : nodes) {
    const std::uint32_t slot = table.new_state();
    NodeState& state = table.state(slot);
    state.position = position;
    derive_neighbors(id, position, state.neighbors);
    // validated ⊆ neighbors, so its list never reallocates while it fills.
    state.validated.clear();
    state.validated.reserve(state.neighbors.size());
    slots.emplace_back(id, slot);
  }
  std::sort(slots.begin(), slots.end());
  std::vector<NodeId> ids;
  ids.reserve(slots.size());
  for (const auto& [id, slot] : slots) ids.push_back(id);

  // Validated lists read every tentative list, so they come second. The
  // predicate is symmetric: each tentative edge (u, v), u < v, is evaluated
  // once, from u, and fills both lists. Walking u in ascending order appends
  // to every list in ascending order; no table reaches the states yet, so
  // they are completed in place.
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const NodeId u = slots[i].first;
    NodeState& mine = table.state(slots[i].second);
    const auto later = std::upper_bound(mine.neighbors.begin(), mine.neighbors.end(), u);
    for (auto it = later; it != mine.neighbors.end(); ++it) {
      const NodeId v = *it;
      const auto at = std::lower_bound(ids.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                       ids.end(), v);
      if (at == ids.end() || *at != v) continue;  // indexed but not being derived
      NodeState& peer = table.state(slots[static_cast<std::size_t>(at - ids.begin())].second);
      ++checks;
      if (core::meets_threshold(mine.neighbors, peer.neighbors, config_.threshold_t)) {
        mine.validated.push_back(v);
        peer.validated.push_back(u);
      }
    }
  }
  for (const auto& [id, slot] : slots) table.set(id, slot);
  return checks;
}

ApplyResult ValidationService::apply_locked(const TopologyEvent& event,
                                            NodeTable::Editor& nodes) {
  const NodeId id = event.node;
  const bool live_after = event.kind != EventKind::kRevoke;
  if (live_after && !grid_.indexable(event.position)) {
    return unindexable(event_kind_name(event.kind), id);
  }
  // Nothing is written to `nodes` before the final pass, and a replaced
  // state is only retired, so `before` and every other state read below
  // stay valid until the edit is published.
  const NodeState* before = nodes.find(id);
  if ((event.kind == EventKind::kDeploy) != (before == nullptr)) {
    return ApplyResult::failure(std::string(event_kind_name(event.kind)) + ": node " +
                                std::to_string(id) +
                                (before == nullptr ? " not live" : " already live"));
  }

  // N(e) before and after the event, e = `id`; empty where e is not live.
  // e's next state is built first, in its own slot, since its tentative
  // list decides the rest.
  const topology::NeighborList no_neighbors;
  const topology::NeighborList& old_neighbors = before ? before->neighbors : no_neighbors;
  const topology::NeighborList* new_neighbors = &no_neighbors;
  std::uint32_t own = TableChunk::kEmpty;
  if (before != nullptr) grid_.erase(id, before->position);
  if (live_after) {
    grid_.insert(id, event.position);
    own = nodes.new_state();
    NodeState& next = nodes.state(own);
    next.position = event.position;
    derive_neighbors(id, event.position, next.neighbors);
    next.validated.clear();
    new_neighbors = &next.neighbors;
  }

  // Every state the event can change: the nodes within R of e's old and new
  // positions, plus e itself while it is live. Each next state is written
  // once, in ascending id order, into a fresh slot.
  disc_.clear();
  std::set_union(old_neighbors.begin(), old_neighbors.end(), new_neighbors->begin(),
                 new_neighbors->end(), std::back_inserter(disc_));
  if (live_after) insert_value(disc_, id);
  touched_.clear();
  for (const NodeId a : disc_) {
    if (a == id) {
      touched_.push_back({id, own, false, false, true});
      continue;
    }
    Touched node{a, nodes.new_state(), topology::contains(old_neighbors, a),
                 topology::contains(*new_neighbors, a), false};
    const NodeState& published = *nodes.find(a);
    NodeState& next = nodes.state(node.slot);
    next.position = published.position;
    assign_list(next.neighbors, published.neighbors);
    assign_list(next.validated, published.validated);
    // Splice e in or out of N(a). Dropping e also drops it from the
    // validated list, a subset of N(a) by construction.
    if (node.is_adjacent && !node.was_adjacent) {
      insert_value(next.neighbors, id);
      node.dirty = true;
    } else if (node.was_adjacent && !node.is_adjacent) {
      erase_value(next.neighbors, id);
      erase_value(next.validated, id);
      node.dirty = true;
    }
    touched_.push_back(node);
  }

  // Visit each unordered adjacent pair (a, v) inside the disc(s) once, with
  // every tentative list final. e's pairs are new or rewired, so they are
  // always checked. For two other nodes, e is the only id whose membership
  // in N(a) or N(v) changed, so |N(a) ∩ N(v)| moved by
  //   Δ = [e ∈ N'(a) ∧ e ∈ N'(v)] − [e ∈ N(a) ∧ e ∈ N(v)]
  // and the verdict can flip only when Δ > 0 on a rejected pair or Δ < 0
  // on a validated one. Pairs with an endpoint outside the disc(s) keep
  // both lists' e-membership, so Δ = 0 for them.
  const std::size_t t = config_.threshold_t;
  for (std::size_t i = 0; i < touched_.size(); ++i) {
    Touched& a = touched_[i];
    NodeState& a_next = nodes.state(a.slot);
    std::size_t j = i + 1;
    for (const NodeId v : a_next.neighbors) {
      if (v < a.id) continue;
      while (j < touched_.size() && touched_[j].id < v) ++j;
      if (j == touched_.size()) break;
      if (touched_[j].id != v) continue;
      Touched& b = touched_[j];
      NodeState& b_next = nodes.state(b.slot);
      if (a.id != id && b.id != id) {
        const int delta = static_cast<int>(a.is_adjacent && b.is_adjacent) -
                          static_cast<int>(a.was_adjacent && b.was_adjacent);
        const bool validated = topology::contains(a_next.validated, v);
        if (!(delta > 0 && !validated) && !(delta < 0 && validated)) continue;
      }
      ++pair_checks_;
      if (core::meets_threshold(a_next.neighbors, b_next.neighbors, t)) {
        a.dirty |= insert_value(a_next.validated, b.id);
        b.dirty |= insert_value(b_next.validated, a.id);
      } else {
        a.dirty |= erase_value(a_next.validated, b.id);
        b.dirty |= erase_value(b_next.validated, a.id);
      }
    }
  }

  // The only tentative lists this event changed are those of the nodes e
  // joined or left, and e's own: exactly the commitments to refresh (a
  // revoked id is erased inside the helper).
  topology::NeighborList rehash;
  if (config_.master_key.present()) {
    for (const Touched& node : touched_) {
      if (node.was_adjacent != node.is_adjacent) rehash.push_back(node.id);
    }
    insert_value(rehash, id);
  }

  if (!live_after) nodes.erase(id);  // retires *before
  for (const Touched& node : touched_) {
    if (node.dirty) {
      nodes.set(node.id, node.slot);
    } else {
      nodes.discard(node.slot);
    }
  }
  refresh_commitments(rehash, nodes.table());

  ++events_applied_;
  return ApplyResult::success();
}

void ValidationService::refresh_commitments(std::span<const NodeId> ids,
                                            const NodeTable& nodes) {
  if (!config_.master_key.present() || ids.empty()) return;
  std::vector<core::BindingSpec> specs;
  std::vector<NodeId> live;
  specs.reserve(ids.size());
  live.reserve(ids.size());
  for (const NodeId id : ids) {
    const NodeState* state = nodes.find(id);
    if (state == nullptr) {
      commitments_.erase(id);
      continue;
    }
    specs.push_back({id, 0, &state->neighbors});
    live.push_back(id);
  }
  std::vector<crypto::Digest> digests(specs.size());
  core::binding_commitments(config_.master_key, specs, digests);
  for (std::size_t i = 0; i < live.size(); ++i) {
    commitments_[live[i]] = digests[i];
  }
}

ApplyResult ValidationService::apply(const TopologyEvent& event) {
  NodeTable::Editor nodes(*arena_, table_);
  const ApplyResult result = apply_locked(event, nodes);
  if (result.ok) publish(nodes);
  return result;
}

std::size_t ValidationService::apply_all(std::span<const TopologyEvent> events) {
  NodeTable::Editor nodes(*arena_, table_);
  std::size_t applied = 0;
  for (const TopologyEvent& event : events) {
    if (apply_locked(event, nodes).ok) ++applied;
  }
  publish(nodes);
  return applied;
}

ApplyResult ValidationService::seed_topology(
    std::span<const std::pair<NodeId, util::Vec2>> nodes) {
  for (const auto& [id, position] : nodes) {
    if (!grid_.indexable(position)) return unindexable("seed", id);
  }
  for (const auto& [id, position] : nodes) grid_.insert(id, position);
  NodeTable::Editor table(*arena_, NodeTable{});
  pair_checks_ += derive_table(nodes, table);
  if (config_.master_key.present()) {
    std::vector<NodeId> ids;
    ids.reserve(nodes.size());
    for (const auto& [id, position] : nodes) ids.push_back(id);
    refresh_commitments(ids, table.table());
  }
  publish(table);
  return ApplyResult::success();
}

std::shared_ptr<const Snapshot> ValidationService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

std::shared_ptr<const Snapshot> ValidationService::rebuild() const {
  std::vector<std::pair<NodeId, util::Vec2>> live;
  live.reserve(table_.size());
  for (const auto& [id, state] : table_) live.emplace_back(id, state->position);
  auto arena = std::make_shared<NodeArena>();
  NodeTable::Editor table(*arena, NodeTable{});
  derive_table(live, table);
  return std::make_shared<const Snapshot>(epoch_, config_.threshold_t, config_.radio_range,
                                          table.commit(), std::move(arena));
}

void ValidationService::publish(NodeTable::Editor& nodes) {
  table_copies_ += nodes.copies();
  table_ = nodes.commit();
  ++epoch_;
  auto next = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                               config_.radio_range, table_, arena_);
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_.swap(next);
  }
  // Dropping the previous snapshot unpins its epoch unless a reader still
  // holds it; then what this edit replaced can be recycled at once.
  next.reset();
  arena_->seal(epoch_);
}

}  // namespace snd::service
