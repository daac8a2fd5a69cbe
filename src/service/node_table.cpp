#include "service/node_table.h"

#include <algorithm>
#include <stdexcept>

namespace snd::service {

template <typename T>
NodeArena::Pool<T>::~Pool() {
  for (std::uint32_t page = 0; page < (size_ + kPageSize - 1) / kPageSize; ++page) {
    delete[] pages_[page];
  }
}

template <typename T>
std::uint32_t NodeArena::Pool<T>::acquire() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (size_ % kPageSize == 0) {
    if (size_ / kPageSize == kMaxPages) throw std::length_error("NodeArena: pool is full");
    pages_[size_ / kPageSize] = new T[kPageSize];
  }
  return size_++;
}

template <typename T>
void NodeArena::Pool<T>::recycle(std::size_t count) {
  const auto end = retired_.begin() + static_cast<std::ptrdiff_t>(count);
  free_.insert(free_.end(), retired_.begin(), end);
  retired_.erase(retired_.begin(), end);
}

template class NodeArena::Pool<NodeState>;
template class NodeArena::Pool<TableChunk>;

void NodeArena::pin(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(pin_mutex_);
  pinned_.insert(std::upper_bound(pinned_.begin(), pinned_.end(), epoch), epoch);
}

void NodeArena::unpin(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(pin_mutex_);
  pinned_.erase(std::lower_bound(pinned_.begin(), pinned_.end(), epoch));
}

void NodeArena::seal(std::uint64_t epoch) {
  const std::size_t states_end = sealed_.empty() ? 0 : sealed_.back().states_end;
  const std::size_t chunks_end = sealed_.empty() ? 0 : sealed_.back().chunks_end;
  if (states_.retired() != states_end || chunks_.retired() != chunks_end) {
    sealed_.push_back({epoch, states_.retired(), chunks_.retired()});
  }
  peak_live_ = std::max(peak_live_, states_.live() + chunks_.live());
  peak_retired_ = std::max(peak_retired_, states_.retired() + chunks_.retired());

  // A batch sealed at epoch e is reached only by tables below e. The lock
  // orders this read after the unpins that allow the recycling, and so
  // after those readers' last reads of what is about to be rewritten.
  std::size_t recyclable = 0;
  {
    std::lock_guard<std::mutex> lock(pin_mutex_);
    while (recyclable < sealed_.size() &&
           (pinned_.empty() || pinned_.front() >= sealed_[recyclable].epoch)) {
      ++recyclable;
    }
  }
  if (recyclable == 0) return;
  const Batch last = sealed_[recyclable - 1];
  states_.recycle(last.states_end);
  chunks_.recycle(last.chunks_end);
  sealed_.erase(sealed_.begin(), sealed_.begin() + static_cast<std::ptrdiff_t>(recyclable));
  for (Batch& batch : sealed_) {
    batch.states_end -= last.states_end;
    batch.chunks_end -= last.chunks_end;
  }
}

ArenaUsage NodeArena::usage() const {
  return {states_.live(), states_.retired(), chunks_.retired(), peak_live_, peak_retired_};
}

void NodeTable::const_iterator::seek(std::uint64_t from) {
  leaf_ = nullptr;
  id_ = 0;
  const NodeTable& table = *table_;
  while (table.levels_ > 0 && (from >> (kBits * table.levels_)) == 0) {
    // Descend along `from`'s digits, moving to the next occupied slot where
    // `from`'s own is empty; a chunk with nothing at or after `from` sends
    // `from` past its whole id range and the walk restarts at the root.
    const TableChunk* chunk = &table.arena_->chunk(table.root_);
    for (unsigned level = table.levels_ - 1;; --level) {
      const unsigned shift = kBits * level;
      const unsigned wanted = digit(from, level);
      const std::uint32_t at_or_after = chunk->occupied & (~std::uint32_t{0} << wanted);
      if (at_or_after == 0) {
        from = ((from >> (shift + kBits)) + 1) << (shift + kBits);
        break;
      }
      const auto found = static_cast<unsigned>(std::countr_zero(at_or_after));
      if (found != wanted) {
        from = ((from >> (shift + kBits)) << (shift + kBits)) |
               (std::uint64_t{found} << shift);
      }
      if (level == 0) {
        leaf_ = chunk;
        id_ = from;
        return;
      }
      chunk = &table.arena_->chunk(chunk->slots[found]);
    }
  }
}

NodeTable::Editor::Editor(NodeArena& arena, NodeTable base)
    : arena_(arena), table_(base), token_(arena.next_token_++) {
  table_.arena_ = &arena;
}

NodeTable NodeTable::Editor::commit() {
  token_ = arena_.next_token_++;
  return table_;
}

TableChunk& NodeTable::Editor::writable(std::uint32_t& ref) {
  if (ref != TableChunk::kEmpty && arena_.chunks_[ref].edit == token_) {
    return arena_.chunks_[ref];
  }
  const std::uint32_t fresh = arena_.chunks_.acquire();
  TableChunk& chunk = arena_.chunks_[fresh];
  if (ref == TableChunk::kEmpty) {
    chunk.slots.fill(TableChunk::kEmpty);
    chunk.occupied = 0;
  } else {
    chunk = arena_.chunks_[ref];
    arena_.chunks_.retire(ref);
  }
  chunk.edit = token_;
  ref = fresh;
  ++copies_;
  return chunk;
}

void NodeTable::Editor::set(NodeId id, std::uint32_t slot) {
  const std::uint64_t key = id;
  NodeTable& table = table_;
  if (table.levels_ == 0) table.levels_ = 1;
  while ((key >> (kBits * table.levels_)) != 0) {
    // Grow by one level: the old root becomes child 0 of a new root, or is
    // dropped when an erase emptied it.
    std::uint32_t grown = TableChunk::kEmpty;
    TableChunk& root = writable(grown);
    if (table.root_ != TableChunk::kEmpty) {
      if (arena_.chunks_[table.root_].occupied != 0) {
        root.slots[0] = table.root_;
        root.occupied = 1;
      } else {
        arena_.chunks_.retire(table.root_);
      }
    }
    table.root_ = grown;
    ++table.levels_;
  }
  std::uint32_t* ref = &table.root_;
  for (unsigned level = table.levels_ - 1; level > 0; --level) {
    TableChunk& branch = writable(*ref);
    const unsigned d = digit(key, level);
    branch.occupied |= 1u << d;
    ref = &branch.slots[d];
  }
  TableChunk& leaf = writable(*ref);
  const unsigned d = digit(key, 0);
  if ((leaf.occupied >> d & 1u) == 0) {
    leaf.occupied |= 1u << d;
    ++table.size_;
  } else {
    arena_.states_.retire(leaf.slots[d]);
  }
  leaf.slots[d] = slot;
}

bool NodeTable::Editor::erase(NodeId id) {
  if (!table_.contains(id)) return false;
  const std::uint64_t key = id;
  NodeTable& table = table_;
  std::array<TableChunk*, kMaxLevels> path{};
  std::uint32_t* ref = &table.root_;
  for (unsigned level = table.levels_ - 1; level > 0; --level) {
    path[level] = &writable(*ref);
    ref = &path[level]->slots[digit(key, level)];
  }
  TableChunk& leaf = writable(*ref);
  const unsigned d = digit(key, 0);
  arena_.states_.retire(leaf.slots[d]);
  leaf.slots[d] = TableChunk::kEmpty;
  leaf.occupied &= ~(1u << d);
  --table.size_;
  // Drop chunks the erase emptied, bottom up; the root always stays.
  const TableChunk* child = &leaf;
  for (unsigned level = 1; level < table.levels_ && child->occupied == 0; ++level) {
    const unsigned digit_here = digit(key, level);
    arena_.chunks_.retire(path[level]->slots[digit_here]);
    path[level]->slots[digit_here] = TableChunk::kEmpty;
    path[level]->occupied &= ~(1u << digit_here);
    child = path[level];
  }
  return true;
}

}  // namespace snd::service
