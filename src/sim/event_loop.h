// Discrete-event loop with virtual time.
//
// Events are callbacks scheduled at absolute or relative virtual times and
// executed in (time, insertion-order) order, so simultaneous events are
// deterministic. Internally the order key is (time, scheduling time, seq):
// seqs are handed out in execution order, so for ordinary events the middle
// term never reorders anything, but it lets a layer that skipped an event
// schedule its consequence later under the key it would have had (see
// schedule_keyed and DESIGN.md §10). The loop never sleeps: running it
// advances virtual time instantaneously, which makes week-long
// page-evolution experiments cheap.
//
// Internals are built for the per-load hot path (a page load executes a few
// thousand events, a fleet run hundreds of millions): callbacks live in a
// recycled slab of SmallFn slots (no per-event heap allocation for typical
// closures), the heap orders 32-byte POD entries, and cancellation is O(1)
// and idempotent — a cancelled entry becomes a tombstone that the pop path
// skips when its generation no longer matches the slot. reset() keeps the
// slab and heap capacity so fleet workers reuse one loop's storage across
// consecutive loads.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/small_fn.h"
#include "sim/time.h"

namespace vroom::trace {
class Recorder;
}

namespace vroom::sim {

// Handle used to cancel a pending event. Holds the event's slab slot and the
// slot's generation, which advances every time the slot is freed; cancelling
// a fired, re-used, or default-constructed id is a no-op because the
// generation no longer matches.
class EventId {
 public:
  EventId() = default;

 private:
  friend class EventLoop;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0xffffffffu;  // no slot: "no event"
  std::uint32_t gen_ = 0;
};

// Execution-order key of an event: virtual time, then the virtual time at
// which it was scheduled, then the seq drawn when it was scheduled.
struct EventKey {
  Time at = 0;
  Time parent_at = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.parent_at != b.parent_at) return a.parent_at < b.parent_at;
    return a.seq < b.seq;
  }
};

class EventLoop {
 public:
  using Callback = SmallFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `cb` at absolute virtual time `at` (clamped to now()).
  EventId schedule_at(Time at, Callback cb);

  // Schedules `cb` after `delay` microseconds of virtual time.
  EventId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Draws the next seq without scheduling anything. A layer that skips an
  // event (TCP's per-segment deliveries) reserves the seq the event's
  // consequence would have drawn, so it can later schedule it with
  // schedule_keyed in its original order.
  std::uint64_t reserve_seq() { return next_seq_++; }

  // Schedules `cb` under an explicit order key, typically
  // {at, time the skipped event would have run, reserve_seq()}. The key must
  // not precede the running event's.
  EventId schedule_keyed(EventKey key, Callback cb);

  // True when an event keyed `key` would already have run: its key precedes
  // the running event's or, between run()/step() calls, it lies within the
  // part of the timeline the loop has executed.
  bool before_running(const EventKey& key) const { return key < running_; }

  // Drops a pending event. Idempotent: default-constructed, already-fired,
  // and already-cancelled ids are no-ops, and never perturb pending().
  void cancel(EventId id);

  // Runs events until the queue is empty or `until` is reached, whichever
  // comes first. Returns the number of events executed.
  std::size_t run(Time until = kNever);

  // Runs at most one event; returns false if the queue was empty or the next
  // event lies beyond `until`.
  bool step(Time until = kNever);

  // Advances virtual time to `at` without executing anything; never rewinds
  // (`at` <= now() is a no-op). The direct-replay entry point: a caller
  // that already holds a time-sorted work stream (deploy's macro arrival
  // replay) moves the clock itself instead of paying a heap event per item,
  // and everything stamped off now() — trace events, link accounting —
  // reads the same times the event-driven equivalent would. The caller owns
  // the invariant that no pending event is being jumped over.
  void advance_to(Time at) {
    if (at > now_) now_ = at;
  }

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  // Returns the loop to its just-constructed state (now()==0, fresh seqs, no
  // recorder) but keeps the slab and heap capacity, so a pooled loop reused
  // across page loads stops paying per-load allocation warmup. A reset loop
  // is indistinguishable from a new one: seqs restart at 1, so event
  // ordering — and therefore every simulated number — is unchanged.
  void reset();

  // Structured-trace recorder attached to this simulation world (see
  // src/trace/). Null when tracing is disabled — instrumentation sites
  // check this pointer and do nothing else, which keeps the disabled-path
  // cost to one branch. The loop does not own the recorder.
  trace::Recorder* recorder() const { return recorder_; }
  void set_recorder(trace::Recorder* recorder) { recorder_ = recorder; }

 private:
  // Min-heap entry; the callback lives in slots_[slot]. An entry is live iff
  // its gen still matches the slot's generation — cancel() frees the slot,
  // leaving the entry behind as a tombstone for the pop path to skip.
  struct HeapEntry {
    EventKey key;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return b.key < a.key;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;        // advanced each time the slot is freed
    std::uint32_t next_free = 0;  // free-list link, valid while free
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  EventId push(EventKey key, Callback cb);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  Time now_ = 0;
  trace::Recorder* recorder_ = nullptr;
  std::uint64_t next_seq_ = 1;
  // Key of the running event; between run()/step() calls, the key of the
  // last executed event, or {until, kNever, max} once everything up to
  // `until` has run.
  EventKey running_;
  std::size_t live_ = 0;  // scheduled and neither fired nor cancelled
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
};

// Thread-local pool of EventLoops: acquire on construction, reset-and-return
// on destruction. Fleet workers build one simulation world per (page, load)
// job; pooling lets consecutive jobs on a worker reuse the slab and heap
// storage the previous load grew. Reentrant — a nested world (e.g. the
// offline resolver crawling inside a live load) simply acquires a second
// loop.
class PooledEventLoop {
 public:
  PooledEventLoop();
  ~PooledEventLoop();
  PooledEventLoop(const PooledEventLoop&) = delete;
  PooledEventLoop& operator=(const PooledEventLoop&) = delete;

  EventLoop& operator*() { return *loop_; }
  EventLoop* operator->() { return loop_; }
  EventLoop* get() { return loop_; }

 private:
  EventLoop* loop_;
};

}  // namespace vroom::sim
