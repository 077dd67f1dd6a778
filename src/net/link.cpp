#include "net/link.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"

namespace vroom::net {

Link::Link(sim::EventLoop& loop, double bps, const char* name)
    : loop_(loop), bps_(bps), name_(name) {
  assert(bps > 0);
}

sim::Time Link::tx_time(std::int64_t bytes) const {
  return static_cast<sim::Time>(static_cast<double>(bytes) * 8.0 / bps_ * 1e6 +
                                0.5);
}

sim::Time Link::enqueue(std::int64_t bytes) {
  const sim::Time start = std::max(loop_.now(), busy_until_);
  const sim::Time done = start + tx_time(bytes);
  busy_time_ += done - start;
  busy_until_ = done;
  total_bytes_ += bytes;
  if (trace::Recorder* tr = trace::of(loop_)) {
    // Queue-depth sample: time a byte arriving right now would wait behind
    // everything already queued — the access-link contention of §4.3.
    const sim::Time queued = busy_until_ - loop_.now();
    tr->counter(trace::Layer::Net, "net",
                std::string(name_) + ".queued_us", queued);
    tr->counters().add(std::string("net.") + name_ + "_bytes", bytes);
    tr->counters().set_max(std::string("net.") + name_ + "_max_queued_us",
                           queued);
  }
  return done;
}

void Link::transmit(std::int64_t bytes, sim::SmallFn on_delivered) {
  const sim::Time done = enqueue(bytes);
  loop_.schedule_at(done, std::move(on_delivered));
}

double Link::utilization() const {
  if (loop_.now() == 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(loop_.now());
}

}  // namespace vroom::net
