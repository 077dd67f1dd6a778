#include "sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>

namespace vroom::sim {

std::uint32_t EventLoop::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventLoop::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId EventLoop::schedule_at(Time at, Callback cb) {
  if (at < now_) at = now_;
  return push(EventKey{at, now_, next_seq_++}, std::move(cb));
}

EventId EventLoop::schedule_keyed(EventKey key, Callback cb) {
  assert(!before_running(key));
  return push(key, std::move(cb));
}

EventId EventLoop::push(EventKey key, Callback cb) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  const std::uint32_t gen = slots_[slot].gen;
  heap_.push_back(HeapEntry{key, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return EventId{slot, gen};
}

void EventLoop::cancel(EventId id) {
  if (id.slot_ >= slots_.size()) return;
  if (slots_[id.slot_].gen != id.gen_) return;  // fired or already cancelled
  release_slot(id.slot_);
  --live_;
  // The heap entry stays behind as a tombstone; step() skips it because
  // freeing the slot advanced its generation.
}

bool EventLoop::step(Time until) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (slots_[top.slot].gen != top.gen) {  // cancelled: drop the tombstone
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      continue;
    }
    if (top.key.at > until) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Move the callback out and free the slot before invoking: the callback
    // may schedule more events, which can grow the slab.
    Callback cb = std::move(slots_[top.slot].cb);
    release_slot(top.slot);
    --live_;
    now_ = top.key.at;
    running_ = top.key;
    cb();
    return true;
  }
  // Everything up to `until` has run.
  const EventKey horizon{until, kNever,
                         std::numeric_limits<std::uint64_t>::max()};
  if (running_ < horizon) running_ = horizon;
  return false;
}

std::size_t EventLoop::run(Time until) {
  std::size_t n = 0;
  while (step(until)) ++n;
  return n;
}

void EventLoop::reset() {
  heap_.clear();
  // Destroy any surviving callbacks but keep the slab's capacity. Every
  // slot's generation advances, so ids issued before the reset stay dead.
  free_head_ = kNoFreeSlot;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    s.cb.reset();
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  live_ = 0;
  now_ = 0;
  next_seq_ = 1;
  running_ = EventKey{};
  recorder_ = nullptr;
}

namespace {

// One pool per thread: fleet workers never share loops, and a loop acquired
// on a thread is returned to that thread's pool.
struct LoopPool {
  std::vector<std::unique_ptr<EventLoop>> free_list;

  EventLoop* acquire() {
    if (free_list.empty()) return new EventLoop();
    EventLoop* loop = free_list.back().release();
    free_list.pop_back();
    return loop;
  }

  void release(EventLoop* loop) {
    loop->reset();
    free_list.emplace_back(loop);
  }
};

LoopPool& thread_pool() {
  thread_local LoopPool pool;
  return pool;
}

}  // namespace

PooledEventLoop::PooledEventLoop() : loop_(thread_pool().acquire()) {}

PooledEventLoop::~PooledEventLoop() { thread_pool().release(loop_); }

}  // namespace vroom::sim
