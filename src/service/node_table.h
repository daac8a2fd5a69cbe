// The service's node table: a persistent map from NodeId to the immutable
// per-node state, shared between the epochs it publishes.
//
// A NodeTable is a radix trie over the id's bits, 5 bits (fanout 32) per
// level. Leaves hold shared_ptr<const NodeState> slots, branches hold child
// chunks, and every chunk carries a 32-bit occupancy mask. The height is the
// fewest levels whose id range covers the largest id ever inserted (at most
// 7 for a 32-bit id), so find() walks a fixed number of levels and searches
// nothing.
//
// A table is a value: copying one copies a root pointer. Writes go through
// an Editor, which path-copies the chunks from the root down to the written
// slot. Each Editor draws a fresh edit token; a chunk it copied or created
// carries that token and is written in place by later writes of the same
// edit, so one edit copies each chunk at most once however many slots under
// it change. commit() hands out the edited table and retires the token: no
// chunk reachable from a committed table is ever written again, so committed
// tables may be shared freely, across threads too.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

#include "topology/graph.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace snd::service {

/// Everything the service knows about one live node. Immutable once
/// published (always held as shared_ptr<const NodeState>).
struct NodeState {
  util::Vec2 position;
  /// N(u): tentative neighbors, i.e. live nodes within radio range. Sorted.
  topology::NeighborList neighbors;
  /// Functional neighbors: v in neighbors with |N(u) ∩ N(v)| >= t+1. Sorted.
  topology::NeighborList validated;
};

class NodeTable {
  struct Chunk;
  struct Leaf;

 public:
  using StatePtr = std::shared_ptr<const NodeState>;
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
      return {static_cast<NodeId>(id_), leaf_->slots[id_ % kFanout].get()};
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
    const Leaf* leaf_ = nullptr;  // null at end()
    std::uint64_t id_ = 0;
  };

  NodeTable() = default;
  // Copies share every chunk and cost one reference count. A move would
  // leave an inconsistent husk, so there is none: moves copy.
  NodeTable(const NodeTable&) = default;
  NodeTable& operator=(const NodeTable&) = default;

  [[nodiscard]] const NodeState* find(NodeId id) const {
    const std::uint64_t key = id;
    if (levels_ == 0 || (key >> (kBits * levels_)) != 0) return nullptr;
    const Chunk* chunk = root_.get();
    for (unsigned level = levels_ - 1; level > 0; --level) {
      chunk = static_cast<const Branch*>(chunk)->children[digit(key, level)].get();
      if (chunk == nullptr) return nullptr;
    }
    return static_cast<const Leaf*>(chunk)->slots[digit(key, 0)].get();
  }
  [[nodiscard]] bool contains(NodeId id) const { return find(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Trie height: 0 when nothing was ever inserted.
  [[nodiscard]] unsigned levels() const { return levels_; }

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {}; }

 private:
  struct Chunk {
    /// Token of the edit that may still write this chunk in place; an edit
    /// that finds any other token copies the chunk first.
    std::uint64_t edit = 0;
    /// Bit i set: slot / child i is occupied (a child is never empty).
    std::uint32_t occupied = 0;
  };
  struct Leaf : Chunk {
    std::array<StatePtr, kFanout> slots;
  };
  struct Branch : Chunk {
    std::array<std::shared_ptr<Chunk>, kFanout> children;
  };

  [[nodiscard]] static unsigned digit(std::uint64_t key, unsigned level) {
    return static_cast<unsigned>(key >> (kBits * level)) % kFanout;
  }

  /// Non-null whenever levels_ > 0.
  std::shared_ptr<Chunk> root_;
  unsigned levels_ = 0;
  std::size_t size_ = 0;
};

/// An edit of a NodeTable. Reads see the edit's own writes. A copy of
/// table() is not a snapshot until commit(): later writes of the same edit
/// still show through it.
class NodeTable::Editor {
 public:
  /// O(1): shares every chunk of `base` until a write copies it.
  explicit Editor(NodeTable base);
  Editor(const Editor&) = delete;
  Editor& operator=(const Editor&) = delete;

  [[nodiscard]] const NodeTable& table() const { return table_; }
  [[nodiscard]] const NodeState* find(NodeId id) const { return table_.find(id); }

  /// Inserts or replaces id's state; `state` must be non-null.
  void set(NodeId id, StatePtr state);
  /// Removes id; false (and no copy) when it is not in the table.
  bool erase(NodeId id);

  /// Chunks this edit copied or created so far.
  [[nodiscard]] std::uint64_t copies() const { return copies_; }

  /// The table as edited so far, never to be written again: later writes
  /// through this editor start a new edit and copy what they change.
  [[nodiscard]] NodeTable commit();

 private:
  /// The chunk `ref` points at, owned by this edit: copied (or created when
  /// `ref` is null) unless this edit already owns it.
  template <typename T>
  T& writable(std::shared_ptr<Chunk>& ref);

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
