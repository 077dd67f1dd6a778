#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <utility>

#include "trace/trace.h"

namespace vroom::net {

TcpConnection::TcpConnection(Network& net, std::string domain, bool needs_dns,
                             WriterDiscipline discipline,
                             std::uint32_t domain_id)
    : net_(net),
      domain_(std::move(domain)),
      lane_("conn#" + std::to_string(net.alloc_conn_id())),
      needs_dns_(needs_dns),
      discipline_(discipline),
      rtt_(net_.rtt(domain_id, domain_)) {
  const auto& cfg = net_.config();
  cwnd_ = static_cast<std::int64_t>(cfg.init_cwnd_segments) * cfg.mss_bytes;
  max_cwnd_ = static_cast<std::int64_t>(cfg.max_cwnd_segments) * cfg.mss_bytes;
  stream_window_ = cfg.h2_stream_window_bytes;
}

TcpConnection::~TcpConnection() {
  if (DeliveryAudit* audit = net_.delivery_audit()) {
    audit_.bytes_delivered = bytes_delivered_total_;
    audit->connections.push_back(audit_);
  }
}

void TcpConnection::connect(std::function<void()> on_established) {
  assert(!established_);
  const auto& cfg = net_.config();
  sim::Time setup = rtt_;  // TCP 3-way handshake (client sees 1 RTT)
  setup += net_.radio_wakeup_delay();  // RRC idle->connected promotion
  if (needs_dns_) setup += cfg.dns_lookup;
  setup += static_cast<sim::Time>(cfg.tls_handshake_rtts) * rtt_;
  const sim::Time started = net_.loop().now();
  net_.loop().schedule_in(setup, [this, started,
                                  cb = std::move(on_established)] {
    established_ = true;
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->complete(trace::Layer::Net, domain_, lane_, "connect", started,
                   {trace::arg("rtt_ms", sim::to_ms(rtt_)),
                    trace::arg("dns", needs_dns_ ? "yes" : "no"),
                    trace::arg("tls_rtts", net_.config().tls_handshake_rtts)});
      tr->counters().add("net.connections");
      if (needs_dns_) tr->counters().add("net.dns_lookups");
    }
    cb();
  });
}

void TcpConnection::send_request(std::int64_t bytes,
                                 std::function<void()> deliver_at_server) {
  assert(established_);
  // Uplink serialization at the client, then propagation to the origin.
  const sim::Time half_rtt = rtt_ / 2;
  net_.uplink().transmit(bytes,
                         [this, half_rtt, cb = std::move(deliver_at_server)] {
                           net_.loop().schedule_in(half_rtt, cb);
                         });
}

TcpConnection::Stream& TcpConnection::stream_for(std::uint32_t id,
                                                 int priority) {
  const auto it = stream_index_.find(id);
  if (it != stream_index_.end()) return streams_[it->second];
  stream_index_.emplace(id, streams_.size());
  streams_.push_back(Stream{id, priority, {}, 0, 0});
  return streams_.back();
}

void TcpConnection::activate(std::size_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it == active_.end() || *it != stream_index) {
    active_.insert(it, stream_index);
  }
}

void TcpConnection::deactivate(std::size_t stream_index) {
  const auto it =
      std::lower_bound(active_.begin(), active_.end(), stream_index);
  if (it != active_.end() && *it == stream_index) active_.erase(it);
}

void TcpConnection::send_chunk(std::uint32_t stream_id, int priority,
                               Chunk chunk) {
  assert(established_);
  apply_due_acks();
  const std::int64_t bytes = std::max<std::int64_t>(chunk.bytes, 1);
  if (net_.delivery_audit() != nullptr) audit_chunk(chunk);
  Stream& s = stream_for(stream_id, priority);
  const bool was_exhausted = s.exhausted();
  s.chunks.push_back(PendingChunk{std::move(chunk), bytes, bytes, bytes});
  if (was_exhausted) {
    activate(static_cast<std::size_t>(&s - streams_.data()));
  }
  pump();
  sync_ack_timer();
}

void TcpConnection::audit_chunk(Chunk& chunk) {
  audit_.bytes_sent += std::max<std::int64_t>(chunk.bytes, 1);
  ++audit_.chunks;
  const std::size_t i = audit_fired_.size();
  audit_fired_.push_back(0);
  chunk.on_first_byte = [this, i, cb = std::move(chunk.on_first_byte)] {
    if (audit_fired_[i]++ != 0) ++audit_.misfires;
    if (cb) cb();
  };
  chunk.on_delivered = [this, i, cb = std::move(chunk.on_delivered)] {
    if (audit_fired_[i]++ == 1) {
      ++audit_.chunks_completed;
    } else {
      ++audit_.misfires;
    }
    if (cb) cb();
  };
}

TcpConnection::Stream* TcpConnection::pick_stream() {
  if (active_.empty()) return nullptr;
  // HTTP/2 flow control: a stream with a full window cannot send even if
  // the connection's congestion window has room; another stream may.
  auto flow_open = [&](const Stream& s) {
    return stream_window_ <= 0 || streams_.size() < 2 ||
           s.inflight < stream_window_;
  };
  if (discipline_ == WriterDiscipline::Ordered) {
    for (const std::size_t idx : active_) {
      Stream& s = streams_[idx];
      if (flow_open(s)) return &s;
    }
    return nullptr;
  }
  // Highest-priority active streams first; round-robin within the tier.
  int best = INT_MIN;
  for (const std::size_t idx : active_) {
    const Stream& s = streams_[idx];
    if (flow_open(s)) best = std::max(best, s.priority);
  }
  if (best == INT_MIN) return nullptr;
  // Cyclic scan from rr_next_, restricted to the active subsequence: the
  // same stream the full positional scan would reach, since exhausted
  // streams never matched it anyway.
  const std::size_t n = streams_.size();
  const std::size_t m = active_.size();
  const std::size_t base = static_cast<std::size_t>(
      std::lower_bound(active_.begin(), active_.end(), rr_next_) -
      active_.begin());
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t idx = active_[(base + k) % m];
    Stream& s = streams_[idx];
    if (flow_open(s) && s.priority == best) {
      rr_next_ = (idx + 1) % n;
      return &s;
    }
  }
  return nullptr;
}

void TcpConnection::pump() {
  const std::int64_t mss = net_.config().mss_bytes;
  const sim::Time rto = std::max(net_.config().rto_min, 2 * rtt_);
  // The burst reaches the access link at up to two instants, half an RTT
  // from now and, for lost segments, one RTO later: one arrival event per
  // instant. The per-segment events they replace had adjacent seqs, so no
  // other event could run between them.
  std::size_t burst[2] = {0, 0};
  while (inflight_ < cwnd_) {
    Stream* s = pick_stream();
    if (s == nullptr) break;
    // Advance the stream's send cursor to a chunk with bytes left.
    while (s->send_cursor < s->chunks.size() &&
           s->chunks[s->send_cursor].to_send == 0) {
      ++s->send_cursor;
    }
    if (s->send_cursor >= s->chunks.size()) continue;
    PendingChunk& pc = s->chunks[s->send_cursor];
    const std::int64_t seg = std::min(mss, pc.to_send);
    pc.to_send -= seg;
    inflight_ += seg;
    s->inflight += seg;
    const std::size_t stream_index =
        static_cast<std::size_t>(s - streams_.data());
    if (s->exhausted()) deactivate(stream_index);
    // A lost segment is recovered after a retransmission timeout and costs
    // the flow half its window; the retransmit then takes the normal path.
    int queue = 0;
    if (net_.draw_loss()) {
      queue = rto > 0 ? 1 : 0;
      cwnd_ = std::max<std::int64_t>(cwnd_ / 2,
                                     2 * net_.config().mss_bytes);
      if (trace::Recorder* tr = trace::of(net_.loop())) {
        tr->instant(trace::Layer::Net, domain_, lane_, "rto",
                    {trace::arg("timeout_ms", sim::to_ms(rto)),
                     trace::arg("cwnd_after", cwnd_)});
        tr->counter(trace::Layer::Net, domain_, "cwnd." + lane_, cwnd_);
        tr->counters().add("net.rto_events");
      }
    }
    ++burst[queue];
    to_link_[queue].push_back(
        Segment{static_cast<std::uint32_t>(stream_index), seg});
  }
  // Propagation from origin to the access-link bottleneck, then FIFO
  // serialization shared with every other connection.
  for (int queue = 0; queue < 2; ++queue) {
    const std::size_t count = burst[queue];
    if (count == 0) continue;
    net_.loop().schedule_in(rtt_ / 2 + (queue == 1 ? rto : 0),
                            [this, queue, count] { arrive(queue, count); });
  }
}

void TcpConnection::arrive(int queue, std::size_t count) {
  sim::EventLoop& loop = net_.loop();
  Link& link = net_.downlink();
  for (std::size_t i = 0; i < count; ++i) {
    const Segment seg = to_link_[queue].front();
    to_link_[queue].pop_front();
    const sim::Time start = std::max(loop.now(), link.busy_until());
    const sim::Time delivered = link.enqueue(seg.bytes);
    Stream& s = streams_[seg.stream];
    // An edge segment holds some chunk's first or last byte, so its
    // delivery fires callbacks and needs its own event. So does one that
    // takes no serialization time: it shares its delivery instant with the
    // segment ahead of it, and only events keep such ties in order.
    bool edge = s.linked == s.link_chunk_start || delivered == start;
    s.linked += seg.bytes;
    while (s.link_cursor < s.chunks.size() &&
           s.linked >= s.link_chunk_start + s.chunks[s.link_cursor].size) {
      edge = true;
      s.link_chunk_start += s.chunks[s.link_cursor].size;
      ++s.link_cursor;
    }
    s.uncredited += seg.bytes;
    uncredited_total_ += seg.bytes;
    // The ACK leaves the client half an RTT after delivery. A skipped
    // delivery's ACK takes a seq reserved now, which orders it ahead of
    // every event scheduled at the delivery instant (DESIGN.md §10).
    ledger_.push_back(Ack{{delivered + rtt_ / 2, delivered,
                           edge ? 0 : loop.reserve_seq()},
                          seg.stream,
                          seg.bytes});
    if (edge) {
      loop.schedule_at(
          delivered, [this, stream = seg.stream, credit = s.uncredited,
                      total = uncredited_total_,
                      ack = ledger_base_ + ledger_.size() - 1] {
            deliver(stream, credit, total, ack);
          });
      s.uncredited = 0;
      uncredited_total_ = 0;
    }
  }
  sync_ack_timer();
}

void TcpConnection::deliver(std::uint32_t stream_index, std::int64_t bytes,
                            std::int64_t total, std::uint64_t ack_index) {
  bytes_delivered_total_ += total;
  Stream& s = streams_[stream_index];
  std::int64_t remaining = bytes;
  while (remaining > 0 && s.deliver_cursor < s.chunks.size()) {
    PendingChunk& pc = s.chunks[s.deliver_cursor];
    if (pc.to_deliver == 0) {
      ++s.deliver_cursor;
      continue;
    }
    if (!pc.first_byte_fired) {
      pc.first_byte_fired = true;
      if (pc.chunk.on_first_byte) pc.chunk.on_first_byte();
    }
    const std::int64_t credit = std::min(remaining, pc.to_deliver);
    pc.to_deliver -= credit;
    remaining -= credit;
    if (pc.to_deliver == 0) {
      if (pc.chunk.on_delivered) pc.chunk.on_delivered();
      ++s.deliver_cursor;
    }
  }
  // The ACK is sent after the callbacks ran, as the per-segment model
  // scheduled it.
  ledger_[ack_index - ledger_base_].key.seq = net_.loop().reserve_seq();
  sync_ack_timer();
}

void TcpConnection::on_ack() {
  ack_armed_ = false;
  apply_ack();
  pump();
  sync_ack_timer();
}

void TcpConnection::apply_ack() {
  const Ack ack = ledger_.front();
  ledger_.pop_front();
  ++ledger_base_;
  inflight_ -= ack.bytes;
  streams_[ack.stream].inflight -= ack.bytes;
  // Slow start: cwnd grows by one MSS per acked segment (doubling per RTT)
  // up to the configured cap; no loss, so we never leave slow start.
  const std::int64_t before = cwnd_;
  cwnd_ = std::min(cwnd_ + net_.config().mss_bytes, max_cwnd_);
  if (cwnd_ != before) {
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->counter(trace::Layer::Net, domain_, "cwnd." + lane_, cwnd_);
      if (cwnd_ == max_cwnd_) {
        tr->instant(trace::Layer::Net, domain_, lane_, "slow_start_cap",
                    {trace::arg("cwnd", cwnd_)});
      }
    }
  }
}

void TcpConnection::apply_due_acks() {
  // Un-armed ACKs found the connection with nothing to send, so their only
  // effect is on inflight and cwnd, which nothing reads before the next
  // send_chunk: apply them here, in ledger (= key) order.
  const sim::EventLoop& loop = net_.loop();
  while (!ledger_.empty() && ledger_.front().key.seq != 0 &&
         loop.before_running(ledger_.front().key)) {
    assert(!ack_armed_);
    apply_ack();
  }
}

void TcpConnection::sync_ack_timer() {
  sim::EventLoop& loop = net_.loop();
  if (active_.empty() && trace::of(loop) == nullptr) {
    if (ack_armed_) {
      loop.cancel(ack_timer_);
      ack_armed_ = false;
    }
    return;
  }
  if (ack_armed_ || ledger_.empty() || ledger_.front().key.seq == 0) return;
  ack_timer_ = loop.schedule_keyed(ledger_.front().key, [this] { on_ack(); });
  ack_armed_ = true;
}

}  // namespace vroom::net
