// A long-lived neighbor-validation service.
//
// Where the bench drivers run one deployment, measure, and exit, the
// service owns a functional topology for the lifetime of a process: it
// ingests TopologyEvents (deploy / update / revoke) and answers
// F(u, v) queries against immutable, versioned Snapshots. This is the
// base-station role the paper's centralized scheme (§2) assumes, grown into
// an actual daemon: apps/snd_serve exposes it over a socket, or a
// simulation embeds it directly.
//
// ## Incremental recomputation
//
// An event at position p only perturbs the topology inside disc(p, 2R):
// nodes within R gain/lose the event's node in their tentative list N(·),
// and any validated pair (a, v) both endpoints of which see a changed
// neighborhood lies within 2R of p -- the locality argument behind the
// paper's Theorem 4 incremental-deployment safety.
//
// Ingestion exploits a bound sharper than that safe 2R envelope. The only
// list membership any single event changes is that of its own node e, so for
// a pair of pre-existing nodes (a, v) the predicate
//
//   v in N(a)  and  |N(a) ∩ N(v)| >= t+1
//
// can flip only when e enters or leaves N(a) ∩ N(v) (or is v itself) --
// which requires BOTH a and v within R of p. The predicate is symmetric, the
// event moves a pair's common count by exactly
//
//   Δ = [e ∈ N'(a) ∧ e ∈ N'(v)] − [e ∈ N(a) ∧ e ∈ N(v)],
//
// and core::meets_threshold stops merging at t+1 common neighbors.
// Ingestion therefore builds each state inside disc(p, R) once (an update
// uses the union of the old- and new-position discs), splices e into or out
// of their tentative lists, and visits every adjacent pair inside the
// disc(s) once, updating both endpoints' validated lists. e's own pairs are
// always checked; any other pair only when Δ pushes it toward the other
// verdict (Δ > 0 and rejected, Δ < 0 and validated). pair_checks() counts
// the evaluations. Everything else is structurally shared with the previous
// epoch: the node table path-copies only the chunks above the states it
// replaces (service/node_table.h), so an event costs O(touched nodes · table
// height), whatever n is. Next states are written straight into recycled
// arena slots through a reused scratch list, so a steady-state event makes
// no heap allocation per touched node. rebuild() recomputes the world from
// scratch, evaluating each tentative edge once; the equivalence suite
// asserts that it, the incremental path and a brute-force oracle agree byte
// for byte after arbitrary event sequences.
//
// ## Concurrency
//
// Mutators (apply / apply_all / seed_topology) are externally serialized by
// the caller (the daemon's ingest loop is single-threaded). Readers call
// snapshot() from any thread: publication swaps a shared_ptr under a short
// mutex, and a reader keeps its Snapshot alive for as long as it likes
// without ever blocking ingestion. A snapshot pins its epoch in the
// service's NodeArena and unpins it when destroyed, on whichever thread
// drops it last; it stays readable after the service is gone
// (tests/service_stress_test runs this under TSan).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/key.h"
#include "crypto/sha256.h"
#include "service/events.h"
#include "service/snapshot.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace snd::service {

/// Uniform grid over node positions with cell size R; every disc query the
/// service makes has radius R or 2R, i.e. a 3x3 or 5x5 cell block.
class SpatialGrid {
 public:
  explicit SpatialGrid(double cell_size) : cell_(cell_size) {}

  /// Whether `position` is finite and its 5x5 cell block has int32 cell
  /// coordinates. Only such positions may be inserted: past that range the
  /// cell arithmetic overflows and a disc query never ends.
  [[nodiscard]] bool indexable(util::Vec2 position) const;

  void insert(NodeId id, util::Vec2 position);
  void erase(NodeId id, util::Vec2 position);

  /// Replaces `out` with the ids of indexed nodes within `radius` of
  /// `center` (inclusive), sorted.
  void query_disc(util::Vec2 center, double radius, std::vector<NodeId>& out) const;

 private:
  struct Entry {
    NodeId id;
    util::Vec2 position;
  };

  [[nodiscard]] std::uint64_t cell_key(util::Vec2 position) const;

  double cell_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> cells_;
};

struct ServiceConfig {
  double radio_range = 50.0;
  std::size_t threshold_t = 2;
  /// When present, the service maintains the paper's binding commitment
  /// C(u) (version 0, over u's current tentative list) for every live node
  /// -- the base-station role holds K, so it can re-issue records on
  /// demand. Absent (the default) disables commitment maintenance.
  crypto::SymmetricKey master_key;
};

/// Outcome of one ingested event. Rejections (deploying an existing id,
/// updating/revoking an unknown one, a position the grid cannot index)
/// leave the topology unchanged.
struct ApplyResult {
  bool ok = true;
  std::string error;

  [[nodiscard]] static ApplyResult success() { return {}; }
  [[nodiscard]] static ApplyResult failure(std::string message) {
    return {false, std::move(message)};
  }
};

class ValidationService {
 public:
  explicit ValidationService(ServiceConfig config);

  /// Ingest one event and publish the next epoch. Touches only per-node
  /// states within radio range of the event position(s); see the header
  /// comment for the locality argument.
  ApplyResult apply(const TopologyEvent& event);

  /// Ingest a batch, publishing a single epoch at the end. Returns the
  /// number of events applied successfully (failures are skipped, matching
  /// replaying the batch through apply one by one).
  std::size_t apply_all(std::span<const TopologyEvent> events);

  /// Bulk bootstrap: deploys all nodes, then derives every list once --
  /// O(n · deg²) instead of n incremental events' O(n · deg³) -- and
  /// publishes one epoch. Requires distinct ids; call on an empty service.
  /// Rejects the whole set, changing nothing, if any position is not
  /// indexable (see SpatialGrid::indexable).
  ApplyResult seed_topology(std::span<const std::pair<NodeId, util::Vec2>> nodes);

  /// Current snapshot; never null, safe to call from any thread and to
  /// retain across later ingestion.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// F(u, v) at the current epoch.
  [[nodiscard]] bool validate(NodeId u, NodeId v) const {
    return snapshot()->validate(u, v);
  }

  /// From-scratch recomputation of the current world (same epoch number),
  /// ignoring all incrementally-maintained lists. The equivalence gate
  /// asserts snapshot()->canonical_json() == rebuild()->canonical_json().
  [[nodiscard]] std::shared_ptr<const Snapshot> rebuild() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return table_.size(); }
  /// Events accepted since construction (not counting seed_topology nodes).
  [[nodiscard]] std::uint64_t events_applied() const { return events_applied_; }
  /// Node-table chunks copied or created by every publish since
  /// construction: the deterministic cost of ingestion, which grows with
  /// the nodes an event touches (times the table height), not with n.
  [[nodiscard]] std::uint64_t table_copies() const { return table_copies_; }
  /// Threshold evaluations (core::meets_threshold calls) made by
  /// seed_topology and every ingested event since construction; rebuild()
  /// is not counted. Seeding makes one per undirected tentative edge, an
  /// event at most one per adjacent pair inside its disc(s).
  [[nodiscard]] std::uint64_t pair_checks() const { return pair_checks_; }
  /// Slot counts of the arena behind every published snapshot. Ingest
  /// thread only.
  [[nodiscard]] ArenaUsage arena_usage() const { return arena_->usage(); }

  /// C(id) over id's current tentative list, or nullptr when id is not
  /// live or no master key is configured. Maintained incrementally: each
  /// ingested event recomputes only the commitments of nodes whose
  /// tentative list changed, in one batched drain of the multi-buffer hash
  /// engine (bit-identical to core::binding_commitment). Call from the
  /// ingest thread only, like the mutators.
  [[nodiscard]] const crypto::Digest* binding_commitment_of(NodeId id) const {
    const auto it = commitments_.find(id);
    return it == commitments_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t commitment_count() const { return commitments_.size(); }

 private:
  /// One state an event can change, in apply_locked's scratch list.
  struct Touched {
    NodeId id;
    std::uint32_t slot;  // arena slot holding the next state
    bool was_adjacent;   // in N(e) before the event
    bool is_adjacent;    // in N(e) after it
    bool dirty;          // next differs from the published state
  };

  /// Replaces `out` with the tentative list for `id`: live nodes within R,
  /// excluding `id` itself.
  void derive_neighbors(NodeId id, util::Vec2 position, topology::NeighborList& out) const;
  /// Writes the from-scratch states of `nodes` (all indexed in grid_) into
  /// an empty `table`: every tentative list, then every validated list, one
  /// threshold evaluation per undirected tentative edge. Returns the number
  /// of evaluations. Shared by seed_topology and rebuild.
  std::uint64_t derive_table(std::span<const std::pair<NodeId, util::Vec2>> nodes,
                             NodeTable::Editor& table) const;

  ApplyResult apply_locked(const TopologyEvent& event, NodeTable::Editor& nodes);
  void publish(NodeTable::Editor& nodes);

  /// Recomputes the binding commitments of `ids` against `nodes` in one
  /// batched hash drain; ids no longer live are erased instead. No-op
  /// without a configured master key.
  void refresh_commitments(std::span<const NodeId> ids, const NodeTable& nodes);

  ServiceConfig config_;
  SpatialGrid grid_;
  /// Holds every state and chunk of table_ and of the snapshots published
  /// from it; each Snapshot shares it and pins its epoch.
  std::shared_ptr<NodeArena> arena_;
  /// The current epoch's table, shared with the published Snapshot; each
  /// apply / apply_all edits it through a NodeTable::Editor (O(1) to open,
  /// then one path copy per touched chunk) and commits the result.
  NodeTable table_;
  /// apply_locked's scratch lists, reused so they keep their capacity.
  std::vector<Touched> touched_;
  topology::NeighborList disc_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t table_copies_ = 0;
  std::uint64_t pair_checks_ = 0;
  /// Live nodes' binding commitments (empty without a master key). Not part
  /// of Snapshot -- commitments are secrets of the K-holding role, not of
  /// the published topology. Hashed, so a revoke erases in O(1).
  std::unordered_map<NodeId, crypto::Digest> commitments_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> current_;
};

}  // namespace snd::service
