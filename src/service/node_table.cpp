#include "service/node_table.h"

#include <atomic>

namespace snd::service {

namespace {

/// Edit tokens are process-wide, so no two edits of any tables share one.
/// 0 is never issued, so a chunk's default token matches no edit.
std::atomic<std::uint64_t> next_token{1};

std::uint64_t fresh_token() { return next_token.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

void NodeTable::const_iterator::seek(std::uint64_t from) {
  leaf_ = nullptr;
  id_ = 0;
  const NodeTable& table = *table_;
  while (table.levels_ > 0 && (from >> (kBits * table.levels_)) == 0) {
    // Descend along `from`'s digits, moving to the next occupied slot where
    // `from`'s own is empty; a chunk with nothing at or after `from` sends
    // `from` past its whole id range and the walk restarts at the root.
    const Chunk* chunk = table.root_.get();
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
        leaf_ = static_cast<const Leaf*>(chunk);
        id_ = from;
        return;
      }
      chunk = static_cast<const Branch*>(chunk)->children[found].get();
    }
  }
}

NodeTable::Editor::Editor(NodeTable base) : table_(std::move(base)), token_(fresh_token()) {}

NodeTable NodeTable::Editor::commit() {
  token_ = fresh_token();
  return table_;
}

template <typename T>
T& NodeTable::Editor::writable(std::shared_ptr<Chunk>& ref) {
  if (ref != nullptr && ref->edit == token_) return static_cast<T&>(*ref);
  ref = ref == nullptr ? std::make_shared<T>() : std::make_shared<T>(static_cast<const T&>(*ref));
  ref->edit = token_;
  ++copies_;
  return static_cast<T&>(*ref);
}

void NodeTable::Editor::set(NodeId id, StatePtr state) {
  const std::uint64_t key = id;
  NodeTable& table = table_;
  if (table.levels_ == 0) table.levels_ = 1;
  while ((key >> (kBits * table.levels_)) != 0) {
    // Grow by one level: the old root becomes child 0 of a new root.
    std::shared_ptr<Chunk> grown;
    Branch& root = writable<Branch>(grown);
    if (table.root_ != nullptr && table.root_->occupied != 0) {
      root.children[0] = std::move(table.root_);
      root.occupied = 1;
    }
    table.root_ = std::move(grown);
    ++table.levels_;
  }
  std::shared_ptr<Chunk>* ref = &table.root_;
  for (unsigned level = table.levels_ - 1; level > 0; --level) {
    Branch& branch = writable<Branch>(*ref);
    const unsigned d = digit(key, level);
    branch.occupied |= 1u << d;
    ref = &branch.children[d];
  }
  Leaf& leaf = writable<Leaf>(*ref);
  const unsigned d = digit(key, 0);
  if ((leaf.occupied >> d & 1u) == 0) {
    leaf.occupied |= 1u << d;
    ++table.size_;
  }
  leaf.slots[d] = std::move(state);
}

bool NodeTable::Editor::erase(NodeId id) {
  if (!table_.contains(id)) return false;
  const std::uint64_t key = id;
  NodeTable& table = table_;
  std::array<Branch*, kMaxLevels> path{};
  std::shared_ptr<Chunk>* ref = &table.root_;
  for (unsigned level = table.levels_ - 1; level > 0; --level) {
    path[level] = &writable<Branch>(*ref);
    ref = &path[level]->children[digit(key, level)];
  }
  Leaf& leaf = writable<Leaf>(*ref);
  leaf.slots[digit(key, 0)].reset();
  leaf.occupied &= ~(1u << digit(key, 0));
  --table.size_;
  // Drop chunks the erase emptied, bottom up; the root always stays.
  const Chunk* child = &leaf;
  for (unsigned level = 1; level < table.levels_ && child->occupied == 0; ++level) {
    const unsigned d = digit(key, level);
    path[level]->children[d].reset();
    path[level]->occupied &= ~(1u << d);
    child = path[level];
  }
  return true;
}

}  // namespace snd::service
