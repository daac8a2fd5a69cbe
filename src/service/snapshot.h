// Immutable, versioned views of the service's functional topology.
//
// The service answers F(u, v) from a Snapshot: an epoch number plus the
// NodeTable of live nodes' states (position, tentative neighbor list N(u),
// validated functional list). Consecutive snapshots share the service's
// NodeArena and every table chunk and state an event did not touch --
// ingesting an event path-copies only the chunks above the nodes inside the
// affected radio disc -- and a snapshot pins its epoch in the arena for its
// lifetime, so nothing it reaches is recycled while it lives. Readers
// holding an old epoch cost nothing but the slots it keeps from recycling.
//
// canonical_json() / digest() deliberately exclude the epoch: they describe
// the topology itself, so an incrementally-maintained snapshot and a
// from-scratch rebuild of the same world serialize byte-identically. That
// equality is the service's correctness gate (tests/service_equivalence_test,
// the CI serve-smoke job, and serve_qps --verify-rebuild all assert it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/node_table.h"
#include "util/ids.h"

namespace snd::service {

class Snapshot {
 public:
  /// `nodes` is a committed table living in `arena`, which the snapshot
  /// keeps alive and pins at `epoch` until it is destroyed (on any thread).
  Snapshot(std::uint64_t epoch, std::size_t threshold_t, double radio_range,
           NodeTable nodes, std::shared_ptr<NodeArena> arena)
      : epoch_(epoch), threshold_t_(threshold_t), radio_range_(radio_range),
        nodes_(nodes), arena_(std::move(arena)) {
    arena_->pin(epoch_);
  }
  ~Snapshot() { arena_->unpin(epoch_); }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Monotonic version: bumped once per publish (event or batch).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t threshold() const { return threshold_t_; }
  [[nodiscard]] double radio_range() const { return radio_range_; }

  /// F(u, v) at this epoch: both live, v in u's validated list.
  [[nodiscard]] bool validate(NodeId u, NodeId v) const;

  [[nodiscard]] const NodeState* find(NodeId id) const { return nodes_.find(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const NodeTable& nodes() const { return nodes_; }

  /// Directed functional-neighbor edge count (each accepted pair counts
  /// twice, matching Digraph conventions).
  [[nodiscard]] std::size_t validated_edge_count() const;

  /// Canonical serialization of the topology -- nodes ascending by id, each
  /// with exact (hex-float) position and both lists -- excluding the epoch,
  /// so incremental == rebuild is a byte-level string comparison.
  [[nodiscard]] std::string canonical_json() const;
  /// CRC-32 of canonical_json(); the wire protocol's cheap equivalence probe.
  [[nodiscard]] std::uint32_t digest() const;

 private:
  std::uint64_t epoch_;
  std::size_t threshold_t_;
  double radio_range_;
  NodeTable nodes_;
  std::shared_ptr<NodeArena> arena_;
};

}  // namespace snd::service
