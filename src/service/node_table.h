// The service's node table: a persistent map from NodeId to per-node state,
// shared between the epochs it publishes, and the arena both live in.
//
// Storage. A NodeArena keeps NodeStates and table chunks in two pools of
// fixed-size pages, and names every slot by a u32 index. Pages never move,
// so growing a pool never moves a slot a reader is looking at. The service
// owns one arena and shares it with every Snapshot it publishes.
//
// Trie. A NodeTable is a radix trie over the id's bits, 5 bits (fanout 32)
// per level. A chunk is 32 u32 slots plus a 32-bit occupancy mask: a leaf's
// slots index states, a branch's index child chunks. The height is the
// fewest levels whose id range covers the largest id ever inserted (at most
// 7 for a 32-bit id), so find() walks a fixed number of levels and searches
// nothing.
//
// Edits. A table is a value (root index, height, size). Writes go through an
// Editor, which path-copies the chunks from the root down to the written
// slot: a copy is one 144-byte memcpy, with no reference count anywhere.
// Each Editor draws a fresh edit token; a chunk it copied or created
// carries that token and is written in place by later writes of the same
// edit, so one edit copies each chunk at most once however many slots under
// it change. commit() hands out the edited table and retires the token: no
// chunk reachable from a committed table is ever written again.
//
// Reclamation. What an edit replaces (the chunks it copied or pruned, the
// states it overwrote or erased) is retired, not freed: older tables may
// still reach it. seal(epoch) closes the batch retired since the last seal,
// which no table of `epoch` or later reaches, and recycles every sealed
// batch that no pinned epoch still reaches. A Snapshot pins its epoch for
// its whole lifetime. A recycled state keeps the capacity of its lists, so
// steady-state ingestion writes states without allocating.
//
// Threads. One writer edits, seals and reads usage(). pin() and unpin() may
// run on any thread; they and the recycling step share the arena's mutex.
// Any thread may read a table whose epoch it keeps pinned: the slots it
// reaches were written before the table was published and are not written
// again until that epoch is unpinned.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "topology/graph.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace snd::service {

/// Everything the service knows about one live node. Written into its arena
/// slot before the first table that reaches it is committed; immutable from
/// then on.
struct NodeState {
  util::Vec2 position;
  /// N(u): tentative neighbors, i.e. live nodes within radio range. Sorted.
  topology::NeighborList neighbors;
  /// Functional neighbors: v in neighbors with |N(u) ∩ N(v)| >= t+1. Sorted.
  topology::NeighborList validated;
};

/// One trie node. A leaf's slots index states, a branch's index child
/// chunks; an unoccupied slot holds kEmpty.
struct TableChunk {
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::array<std::uint32_t, 32> slots;
  /// Token of the edit that may still write this chunk in place; an edit
  /// that finds any other token copies the chunk first.
  std::uint64_t edit;
  /// Bit i set: slot i is occupied (a child chunk is never empty).
  std::uint32_t occupied;
};

/// Slot counts of a NodeArena (see usage()).
struct ArenaUsage {
  /// States reachable from the newest table, plus any an open edit holds.
  std::size_t live_states = 0;
  /// States replaced by an edit and not recycled yet.
  std::size_t retired_states = 0;
  std::size_t retired_chunks = 0;
  /// Highest live and retired slot counts (states + chunks) seen at any
  /// seal, the retired count taken before that seal recycles.
  std::size_t peak_live_slots = 0;
  std::size_t peak_retired_slots = 0;
};

class NodeArena {
 public:
  NodeArena() = default;
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  [[nodiscard]] const NodeState& state(std::uint32_t slot) const { return states_[slot]; }
  [[nodiscard]] const TableChunk& chunk(std::uint32_t slot) const { return chunks_[slot]; }

  /// Keeps every slot a table of `epoch` reaches from being recycled until
  /// the matching unpin(). Any thread; pins of one epoch may repeat.
  void pin(std::uint64_t epoch);
  void unpin(std::uint64_t epoch);

  /// Writer: the slots retired since the last seal are reached by no table
  /// of `epoch` or later. Recycles every sealed batch that no pinned epoch
  /// below its own still reaches. `epoch` never decreases between calls.
  void seal(std::uint64_t epoch);

  /// Writer only.
  [[nodiscard]] ArenaUsage usage() const;

 private:
  friend class NodeTable;

  /// Slots of T in pages of kPageSize that never move once allocated; a
  /// fixed directory of page pointers, allocated up front but only touched
  /// as pages are added, lets readers index it while the writer grows it.
  template <typename T>
  class Pool {
   public:
    static constexpr unsigned kPageBits = 10;
    static constexpr std::uint32_t kPageSize = 1u << kPageBits;
    static constexpr std::uint32_t kMaxPages = 1u << 16;  // 64M slots

    Pool() : pages_(std::make_unique_for_overwrite<T*[]>(kMaxPages)) {}
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool();

    T& operator[](std::uint32_t slot) const {
      return pages_[slot >> kPageBits][slot & (kPageSize - 1)];
    }
    /// A free slot (a recycled one first), its contents unspecified.
    [[nodiscard]] std::uint32_t acquire();
    /// Back to the free list at once: for slots no table ever reached.
    void release(std::uint32_t slot) { free_.push_back(slot); }
    void retire(std::uint32_t slot) { retired_.push_back(slot); }
    /// Frees the oldest `count` retired slots.
    void recycle(std::size_t count);

    [[nodiscard]] std::size_t retired() const { return retired_.size(); }
    [[nodiscard]] std::size_t live() const { return size_ - free_.size() - retired_.size(); }

   private:
    std::unique_ptr<T*[]> pages_;
    std::uint32_t size_ = 0;  // slots ever handed out
    std::vector<std::uint32_t> free_;
    /// In retirement order; the oldest are recycled first.
    std::vector<std::uint32_t> retired_;
  };

  /// Slots retired before a seal at `epoch`: the prefixes of the pools'
  /// retired lists up to these ends.
  struct Batch {
    std::uint64_t epoch;
    std::size_t states_end;
    std::size_t chunks_end;
  };

  Pool<NodeState> states_;
  Pool<TableChunk> chunks_;
  std::vector<Batch> sealed_;
  /// Edit tokens, issued in increasing order, so a recycled chunk's stale
  /// token never matches a later edit.
  std::uint64_t next_token_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t peak_retired_ = 0;

  std::mutex pin_mutex_;
  std::vector<std::uint64_t> pinned_;  // sorted ascending, with repeats
};

class NodeTable {
 public:
  static constexpr unsigned kBits = 5;
  static constexpr unsigned kFanout = 1u << kBits;
  static constexpr unsigned kMaxLevels = 7;  // 7 * 5 bits cover every u32 id

  class Editor;

  /// Ascending-id iteration over (id, state) pairs.
  class const_iterator {
   public:
    using value_type = std::pair<NodeId, const NodeState*>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    [[nodiscard]] value_type operator*() const {
      return {static_cast<NodeId>(id_), &table_->arena_->state(leaf_->slots[id_ % kFanout])};
    }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.leaf_ == b.leaf_ && a.id_ == b.id_;
    }

   private:
    friend class NodeTable;
    const_iterator(const NodeTable* table, std::uint64_t from) : table_(table) {
      seek(from);
    }
    /// Moves to the first live id >= from, or to end().
    void seek(std::uint64_t from);

    const NodeTable* table_ = nullptr;
    const TableChunk* leaf_ = nullptr;  // null at end()
    std::uint64_t id_ = 0;
  };

  /// The empty table.
  NodeTable() = default;

  [[nodiscard]] const NodeState* find(NodeId id) const {
    const std::uint64_t key = id;
    if (levels_ == 0 || (key >> (kBits * levels_)) != 0) return nullptr;
    std::uint32_t slot = root_;
    for (unsigned level = levels_ - 1;; --level) {
      slot = arena_->chunk(slot).slots[digit(key, level)];
      if (slot == TableChunk::kEmpty) return nullptr;
      if (level == 0) return &arena_->state(slot);
    }
  }
  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Trie height: 0 when nothing was ever inserted.
  [[nodiscard]] unsigned levels() const { return levels_; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {}; }

 private:
  [[nodiscard]] static unsigned digit(std::uint64_t key, unsigned level) {
    return static_cast<unsigned>(key >> (kBits * level)) % kFanout;
  }

  /// Set by the first Editor; every slot below root_ lives in *arena_.
  const NodeArena* arena_ = nullptr;
  /// A chunk whenever levels_ > 0.
  std::uint32_t root_ = TableChunk::kEmpty;
  unsigned levels_ = 0;
  std::size_t size_ = 0;
};

/// An edit of a NodeTable. Reads see the edit's own writes. A copy of
/// table() is not a snapshot until commit(): later writes of the same edit
/// still show through it.
class NodeTable::Editor {
 public:
  /// O(1): shares every chunk of `base`, which must be empty or live in
  /// `arena`, until a write copies it.
  Editor(NodeArena& arena, NodeTable base);
  Editor(const Editor&) = delete;
  Editor& operator=(const Editor&) = delete;

  [[nodiscard]] const NodeTable& table() const { return table_; }
  [[nodiscard]] const NodeState* find(NodeId id) const { return table_.find(id); }

  /// A state slot for the caller to fill and then set(), or to hand back
  /// with discard(). A recycled slot keeps its previous contents, so the
  /// caller assigns every field; its lists keep their capacity.
  [[nodiscard]] std::uint32_t new_state() { return arena_.states_.acquire(); }
  [[nodiscard]] NodeState& state(std::uint32_t slot) { return arena_.states_[slot]; }
  void discard(std::uint32_t slot) { arena_.states_.release(slot); }

  /// Makes `slot` (from new_state()) id's state, retiring the one it
  /// replaces.
  void set(NodeId id, std::uint32_t slot);
  /// Removes id, retiring its state; false (and no copy) when it is not in
  /// the table.
  bool erase(NodeId id);

  /// Chunks this edit copied or created so far.
  [[nodiscard]] std::uint64_t copies() const { return copies_; }

  /// The table as edited so far, never to be written again: later writes
  /// through this editor start a new edit and copy what they change.
  [[nodiscard]] NodeTable commit();

 private:
  /// The chunk `ref` names, owned by this edit: copied (or created when
  /// `ref` is kEmpty) unless this edit already owns it. A copied original
  /// is retired.
  TableChunk& writable(std::uint32_t& ref);

  NodeArena& arena_;
  NodeTable table_;
  std::uint64_t token_;
  std::uint64_t copies_ = 0;
};

inline NodeTable::const_iterator& NodeTable::const_iterator::operator++() {
  const unsigned slot = id_ % kFanout;
  const std::uint32_t later =
      slot + 1 < kFanout ? leaf_->occupied & (~std::uint32_t{0} << (slot + 1)) : 0;
  if (later != 0) {
    id_ = id_ - slot + static_cast<unsigned>(std::countr_zero(later));
  } else {
    seek(id_ - slot + kFanout);
  }
  return *this;
}

}  // namespace snd::service
