// Byte-serialized FIFO link model.
//
// The client's cellular access link is the shared bottleneck in mobile page
// loads; every TCP connection's segments drain through one `Link` instance,
// which serializes them at the configured rate in arrival order. Contention
// between concurrently pushed/fetched resources — the effect Vroom's
// cooperative scheduler exists to manage (§4.3 of the paper) — emerges
// directly from this FIFO.
#pragma once

#include <cstdint>

#include "sim/event_loop.h"
#include "sim/small_fn.h"

namespace vroom::net {

class Link {
 public:
  // `bps` is the line rate in bits per second. `name` labels the link in
  // traces and counters ("downlink"/"uplink").
  Link(sim::EventLoop& loop, double bps, const char* name = "link");

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Serializes `bytes` through the link; `on_delivered` fires when the last
  // bit clears the link. Transmissions queue FIFO behind earlier ones.
  void transmit(std::int64_t bytes, sim::SmallFn on_delivered);

  // transmit() minus the completion event: identical FIFO accounting
  // (busy_until/busy_time/total_bytes) and the identical trace counters,
  // but nothing is scheduled. Returns the time the last bit clears the
  // link. For direct-replay callers (deploy's macro pass) that only need
  // the queueing arithmetic — the FIFO story is busy_until_ plus tx_time,
  // so the heap event behind transmit() is pure overhead there.
  sim::Time enqueue(std::int64_t bytes);

  // Time the link becomes idle given everything queued so far.
  sim::Time busy_until() const { return busy_until_; }

  // Serialization delay of `bytes` on an idle link.
  sim::Time tx_time(std::int64_t bytes) const;

  std::int64_t total_bytes() const { return total_bytes_; }

  // Total time spent transmitting so far (the numerator of utilization());
  // equals the sum of tx_time over every transmit by construction, which
  // the macro-trace auditor cross-checks against the event stream.
  sim::Time busy_time() const { return busy_time_; }

  // Fraction of [0, now] during which the link was transmitting.
  double utilization() const;

 private:
  sim::EventLoop& loop_;
  double bps_;
  const char* name_;
  sim::Time busy_until_ = 0;
  std::int64_t total_bytes_ = 0;
  sim::Time busy_time_ = 0;
};

}  // namespace vroom::net
