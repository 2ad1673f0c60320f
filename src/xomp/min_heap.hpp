// paxsim/xomp/min_heap.hpp
//
// Indexed binary min-heap over a dense id space [0, capacity), keyed by a
// double (a virtual-time clock).  Used by the runtime and the harness to
// pick the context/program furthest behind in virtual time in O(log n)
// instead of a linear scan per step.
//
// Determinism: ordering is lexicographic on (key, tie, id).  The tie value
// defaults to the id itself, which reproduces exactly the tie-break of the
// linear scans this heap replaced — "the first strictly smaller clock wins",
// i.e. equal clocks resolve to the lowest rank.  Callers that need a
// machine-global order (the runtime's ready heap) instead pass an explicit
// tie — the context's flat cpu id — so dequeue order is one total order
// independent of insertion order or id numbering (covered by the tie-storm
// unit test).
#pragma once

#include <cstddef>
#include <vector>

namespace paxsim::xomp {

class IndexedMinHeap {
 public:
  explicit IndexedMinHeap(int capacity = 0) { reset(capacity); }

  /// Empties the heap and re-sizes the id space to [0, capacity).
  void reset(int capacity) {
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(capacity));
    key_.assign(static_cast<std::size_t>(capacity), 0.0);
    tie_.assign(static_cast<std::size_t>(capacity), 0);
    pos_.assign(static_cast<std::size_t>(capacity), -1);
    for (int i = 0; i < capacity; ++i) tie_[static_cast<std::size_t>(i)] = i;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool contains(int id) const noexcept {
    return pos_[static_cast<std::size_t>(id)] >= 0;
  }
  [[nodiscard]] double key_of(int id) const noexcept {
    return key_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int tie_of(int id) const noexcept {
    return tie_[static_cast<std::size_t>(id)];
  }

  /// Id with the smallest (key, tie, id); the heap must be non-empty.
  [[nodiscard]] int top() const noexcept { return heap_.front(); }

  /// Inserts @p id (must not be present) with @p key.  @p tie overrides the
  /// id-order tie-break (ids sharing a tie fall back to id order).
  void push(int id, double key) { push(id, key, id); }
  void push(int id, double key, int tie) {
    key_[static_cast<std::size_t>(id)] = key;
    tie_[static_cast<std::size_t>(id)] = tie;
    pos_[static_cast<std::size_t>(id)] = static_cast<int>(heap_.size());
    heap_.push_back(id);
    sift_up(heap_.size() - 1);
  }

  /// Removes @p id (must be present).
  void remove(int id) {
    const std::size_t slot =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
    const int moved = heap_.back();
    heap_.pop_back();
    pos_[static_cast<std::size_t>(id)] = -1;
    if (slot < heap_.size()) {
      heap_[slot] = moved;
      pos_[static_cast<std::size_t>(moved)] = static_cast<int>(slot);
      if (!sift_down(slot)) sift_up(slot);
    }
  }

  void pop() { remove(heap_.front()); }

  /// Changes @p id's key (must be present) and restores heap order.
  void update(int id, double key) {
    key_[static_cast<std::size_t>(id)] = key;
    const std::size_t slot =
        static_cast<std::size_t>(pos_[static_cast<std::size_t>(id)]);
    if (!sift_down(slot)) sift_up(slot);
  }

 private:
  [[nodiscard]] bool less(int a, int b) const noexcept {
    const double ka = key_[static_cast<std::size_t>(a)];
    const double kb = key_[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    const int ta = tie_[static_cast<std::size_t>(a)];
    const int tb = tie_[static_cast<std::size_t>(b)];
    return ta < tb || (ta == tb && a < b);
  }

  void swap_slots(std::size_t i, std::size_t j) noexcept {
    std::swap(heap_[i], heap_[j]);
    pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    pos_[static_cast<std::size_t>(heap_[j])] = static_cast<int>(j);
  }

  void sift_up(std::size_t slot) noexcept {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!less(heap_[slot], heap_[parent])) break;
      swap_slots(slot, parent);
      slot = parent;
    }
  }

  /// Returns true if the element moved.
  bool sift_down(std::size_t slot) noexcept {
    bool moved = false;
    for (;;) {
      std::size_t best = slot;
      const std::size_t l = 2 * slot + 1;
      const std::size_t r = 2 * slot + 2;
      if (l < heap_.size() && less(heap_[l], heap_[best])) best = l;
      if (r < heap_.size() && less(heap_[r], heap_[best])) best = r;
      if (best == slot) return moved;
      swap_slots(slot, best);
      slot = best;
      moved = true;
    }
  }

  std::vector<int> heap_;    // slot -> id
  std::vector<int> pos_;     // id -> slot (-1 if absent)
  std::vector<double> key_;  // id -> key
  std::vector<int> tie_;     // id -> tie-break value (defaults to id)
};

}  // namespace paxsim::xomp
