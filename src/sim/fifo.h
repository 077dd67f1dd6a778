// Flat FIFO queue for the per-load hot path.
//
// A vector plus a head index: push_back appends, pop_front advances the
// head, the consumed prefix is compacted away rather than grown past, and
// the buffer goes back to its memory resource once the queue drains. One
// block per non-empty queue, where std::deque allocates a map and nodes
// and has a throwing move constructor. With a recycling resource
// (sim::RecyclingResource) behind it, a drained queue's block serves the
// next queue to fill. Elements are addressed front-relative, like
// std::deque's. Element moves happen only on growth and compaction, so T
// should be nothrow movable; references are invalidated by push_back.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory_resource>
#include <utility>
#include <vector>

namespace vroom::sim {

template <typename T>
class Fifo {
 public:
  explicit Fifo(std::pmr::memory_resource* memory =
                    std::pmr::get_default_resource())
      : items_(memory) {}

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() {
    assert(!empty());
    return items_[head_];
  }
  const T& front() const {
    assert(!empty());
    return items_[head_];
  }
  T& operator[](std::size_t i) {
    assert(i < size());
    return items_[head_ + i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size());
    return items_[head_ + i];
  }

  void push_back(T item) {
    // Compact before growing: once the consumed prefix is at least half
    // the buffer, sliding the live tail down is cheaper than reallocating.
    if (items_.size() == items_.capacity() && head_ > 0 &&
        head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(item));
  }

  void pop_front() {
    assert(!empty());
    items_[head_] = T();  // release what the element owns now, not at reuse
    if (++head_ == items_.size()) {
      // Drained: hand the buffer back to the memory resource, so an idle
      // queue holds nothing and a busy one elsewhere can take the block.
      std::pmr::vector<T>(items_.get_allocator()).swap(items_);
      head_ = 0;
    }
  }

 private:
  std::pmr::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace vroom::sim
