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

std::vector<NodeId> SpatialGrid::query_disc(util::Vec2 center, double radius) const {
  const double r2 = radius * radius;
  const std::int64_t x_lo = cell_coord(center.x - radius, cell_);
  const std::int64_t x_hi = cell_coord(center.x + radius, cell_);
  const std::int64_t y_lo = cell_coord(center.y - radius, cell_);
  const std::int64_t y_hi = cell_coord(center.y + radius, cell_);
  std::vector<NodeId> result;
  for (std::int64_t cx = x_lo; cx <= x_hi; ++cx) {
    for (std::int64_t cy = y_lo; cy <= y_hi; ++cy) {
      const auto cell = cells_.find(pack_cell(cx, cy));
      if (cell == cells_.end()) continue;
      for (const Entry& entry : cell->second) {
        if (util::distance_squared(entry.position, center) <= r2) result.push_back(entry.id);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

ValidationService::ValidationService(ServiceConfig config)
    : config_(config), grid_(config.radio_range) {
  current_ = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                              config_.radio_range, table_);
}

topology::NeighborList ValidationService::derive_neighbors(NodeId id,
                                                           util::Vec2 position) const {
  topology::NeighborList neighbors = grid_.query_disc(position, config_.radio_range);
  // query_disc includes the node itself when indexed; N(u) excludes u.
  const auto self = std::lower_bound(neighbors.begin(), neighbors.end(), id);
  if (self != neighbors.end() && *self == id) neighbors.erase(self);
  return neighbors;
}

std::uint64_t ValidationService::derive_table(
    std::span<const std::pair<NodeId, util::Vec2>> nodes, NodeTable::Editor& table) const {
  std::vector<std::pair<NodeId, std::shared_ptr<NodeState>>> states;
  states.reserve(nodes.size());
  for (const auto& [id, position] : nodes) {
    auto state = std::make_shared<NodeState>();
    state->position = position;
    state->neighbors = derive_neighbors(id, position);
    // validated ⊆ neighbors, so its list never reallocates while it fills.
    state->validated.reserve(state->neighbors.size());
    states.emplace_back(id, std::move(state));
  }
  std::sort(states.begin(), states.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<NodeId> ids;
  ids.reserve(states.size());
  for (const auto& [id, state] : states) ids.push_back(id);

  // Validated lists read every tentative list, so they come second. The
  // predicate is symmetric: each tentative edge (u, v), u < v, is evaluated
  // once, from u, and fills both lists. Walking u in ascending order appends
  // to every list in ascending order; the states are not published yet, so
  // they are completed in place.
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const NodeId u = states[i].first;
    NodeState& mine = *states[i].second;
    const auto later = std::upper_bound(mine.neighbors.begin(), mine.neighbors.end(), u);
    for (auto it = later; it != mine.neighbors.end(); ++it) {
      const NodeId v = *it;
      const auto at = std::lower_bound(ids.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                                       ids.end(), v);
      if (at == ids.end() || *at != v) continue;  // indexed but not being derived
      NodeState& peer = *states[static_cast<std::size_t>(at - ids.begin())].second;
      ++checks;
      if (core::meets_threshold(mine.neighbors, peer.neighbors, config_.threshold_t)) {
        mine.validated.push_back(v);
        peer.validated.push_back(u);
      }
    }
  }
  for (auto& [id, state] : states) table.set(id, std::move(state));
  return checks;
}

ApplyResult ValidationService::apply_locked(const TopologyEvent& event,
                                            NodeTable::Editor& nodes) {
  const NodeId id = event.node;
  const bool live_after = event.kind != EventKind::kRevoke;
  if (live_after && !grid_.indexable(event.position)) {
    return unindexable(event_kind_name(event.kind), id);
  }
  // Nothing is written to `nodes` before the final pass, so `before` and
  // every other state read below stay valid until then.
  const NodeState* before = nodes.find(id);
  if ((event.kind == EventKind::kDeploy) != (before == nullptr)) {
    return ApplyResult::failure(std::string(event_kind_name(event.kind)) + ": node " +
                                std::to_string(id) +
                                (before == nullptr ? " not live" : " already live"));
  }

  // N(e) before and after the event, e = `id`; empty where e is not live.
  const topology::NeighborList no_neighbors;
  const topology::NeighborList& old_neighbors = before ? before->neighbors : no_neighbors;
  topology::NeighborList new_neighbors;
  if (before != nullptr) grid_.erase(id, before->position);
  if (live_after) {
    grid_.insert(id, event.position);
    new_neighbors = derive_neighbors(id, event.position);
  }

  // Every state the event can change: the nodes within R of e's old and new
  // positions, plus e itself while it is live. Each next state is built
  // once, in ascending id order.
  struct Touched {
    NodeId id;
    bool was_adjacent;  // in N(e) before the event
    bool is_adjacent;   // in N(e) after it
    bool dirty;         // next differs from the published state
    NodeState next;
  };
  topology::NeighborList disc;
  std::set_union(old_neighbors.begin(), old_neighbors.end(), new_neighbors.begin(),
                 new_neighbors.end(), std::back_inserter(disc));
  if (live_after) insert_value(disc, id);
  std::vector<Touched> touched;
  touched.reserve(disc.size());
  for (const NodeId a : disc) {
    if (a == id) {
      touched.push_back({id, false, false, true, {event.position, new_neighbors, {}}});
      continue;
    }
    Touched node{a, topology::contains(old_neighbors, a),
                 topology::contains(new_neighbors, a), false, *nodes.find(a)};
    // Splice e in or out of N(a). Dropping e also drops it from the
    // validated list, a subset of N(a) by construction.
    if (node.is_adjacent && !node.was_adjacent) {
      insert_value(node.next.neighbors, id);
      node.dirty = true;
    } else if (node.was_adjacent && !node.is_adjacent) {
      erase_value(node.next.neighbors, id);
      erase_value(node.next.validated, id);
      node.dirty = true;
    }
    touched.push_back(std::move(node));
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
  for (std::size_t i = 0; i < touched.size(); ++i) {
    Touched& a = touched[i];
    std::size_t j = i + 1;
    for (const NodeId v : a.next.neighbors) {
      if (v < a.id) continue;
      while (j < touched.size() && touched[j].id < v) ++j;
      if (j == touched.size()) break;
      if (touched[j].id != v) continue;
      Touched& b = touched[j];
      if (a.id != id && b.id != id) {
        const int delta = static_cast<int>(a.is_adjacent && b.is_adjacent) -
                          static_cast<int>(a.was_adjacent && b.was_adjacent);
        const bool validated = topology::contains(a.next.validated, v);
        if (!(delta > 0 && !validated) && !(delta < 0 && validated)) continue;
      }
      ++pair_checks_;
      if (core::meets_threshold(a.next.neighbors, b.next.neighbors, t)) {
        a.dirty |= insert_value(a.next.validated, b.id);
        b.dirty |= insert_value(b.next.validated, a.id);
      } else {
        a.dirty |= erase_value(a.next.validated, b.id);
        b.dirty |= erase_value(b.next.validated, a.id);
      }
    }
  }

  // The only tentative lists this event changed are those of the nodes e
  // joined or left, and e's own: exactly the commitments to refresh (a
  // revoked id is erased inside the helper).
  topology::NeighborList rehash;
  if (config_.master_key.present()) {
    for (const Touched& node : touched) {
      if (node.was_adjacent != node.is_adjacent) rehash.push_back(node.id);
    }
    insert_value(rehash, id);
  }

  if (!live_after) nodes.erase(id);  // frees *before
  for (Touched& node : touched) {
    if (node.dirty) nodes.set(node.id, std::make_shared<const NodeState>(std::move(node.next)));
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
  NodeTable::Editor nodes(table_);
  const ApplyResult result = apply_locked(event, nodes);
  if (result.ok) publish(nodes);
  return result;
}

std::size_t ValidationService::apply_all(std::span<const TopologyEvent> events) {
  NodeTable::Editor nodes(table_);
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
  NodeTable::Editor table{NodeTable{}};
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
  NodeTable::Editor table{NodeTable{}};
  derive_table(live, table);
  return std::make_shared<const Snapshot>(epoch_, config_.threshold_t, config_.radio_range,
                                          table.commit());
}

void ValidationService::publish(NodeTable::Editor& nodes) {
  table_copies_ += nodes.copies();
  table_ = nodes.commit();
  ++epoch_;
  auto next = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                               config_.radio_range, table_);
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  current_ = std::move(next);
}

}  // namespace snd::service
