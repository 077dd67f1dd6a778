// Single-threaded main-thread task executor.
//
// Non-preemptive: once a task starts, later arrivals wait regardless of
// priority — which is exactly why Vroom's JavaScript request scheduler can
// be delayed by a long-running script (§5.2), an effect the client-side
// scheduler experiments depend on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>

#include "sim/event_loop.h"
#include "sim/small_fn.h"

namespace vroom::browser {

enum class TaskPriority : int {
  ImageDecode = 0,
  AsyncScript = 1,
  Parse = 2,       // HTML/CSS parsing and synchronous script execution
  Scheduler = 3,   // tiny request-scheduler callbacks
};

class TaskQueue {
 public:
  // Queue storage (deque blocks) comes from `memory` — the page world's
  // per-load arena when the browser constructs it, the default heap
  // resource otherwise.
  explicit TaskQueue(sim::EventLoop& loop,
                     std::pmr::memory_resource* memory =
                         std::pmr::get_default_resource())
      : loop_(loop), queue_(memory) {}

  // Enqueues a task occupying the CPU for `duration`; `body` runs at task
  // completion.
  void post(sim::Time duration, TaskPriority priority, sim::SmallFn body);

  bool busy() const { return running_; }
  bool idle() const { return !running_ && queue_.empty(); }
  sim::Time total_busy() const { return total_busy_; }

  // Observer invoked whenever the CPU transitions busy <-> idle (used by the
  // critical-path tracker).
  void set_state_observer(std::function<void(bool busy)> obs) {
    observer_ = std::move(obs);
  }

 private:
  struct Task {
    sim::Time duration;
    int priority;
    sim::SmallFn body;
  };

  void start_next();

  sim::EventLoop& loop_;
  std::pmr::deque<Task> queue_;
  bool running_ = false;
  // The running task's body. Held here, not in the completion event's
  // closure, so that closure stays within SmallFn's inline buffer.
  sim::SmallFn running_body_;
  sim::Time total_busy_ = 0;
  std::function<void(bool)> observer_;
};

}  // namespace vroom::browser
