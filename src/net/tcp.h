// TCP connection model with stream-aware send scheduling.
//
// Models the pieces of TCP that shape page-load timing on an LTE access
// link: DNS lookup, 3-way handshake, TLS setup RTTs, slow start from an
// initial window, and in-order byte delivery through the shared bottleneck
// (`Network::downlink`). A lost segment (NetworkConfig::loss_rate, off by
// default) costs a retransmission timeout and half the window.
//
// Heap events exist only where another event could observe state
// (DESIGN.md §10): one arrival event per burst pump() sends, a delivery
// event only for a segment holding some chunk's first or last byte, and the
// ACKs, kept in a per-connection ledger, enter the heap one at a time and
// only while the connection has unsent data or is traced. Every callback
// fires at the same time and in the same order as a per-segment model's.
//
// Server-to-client data is enqueued as `Chunk`s tagged with a stream id.
// Two writer disciplines are supported:
//   * RoundRobin — segments alternate across active streams, approximating
//     HTTP/2 frame multiplexing (the baseline behaviour);
//   * Ordered   — streams drain strictly in first-write order, the ordered
//     response writer Vroom adds to Mahimahi (§5.1).
// HTTP/1.1 uses a single stream per connection, where the two coincide.
//
// Storage is flat (DESIGN.md §10): every chunk of every stream lives in one
// connection-wide vector, each stream threading its chunks by index; the
// segments on their way to the link and the ACK ledger are index FIFOs; and
// callbacks are sim::SmallFn. All of it comes from the network's memory
// resource, which recycles freed buffers across the load's connections, so
// a connection's allocations grow with its window, not its traffic.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/fifo.h"
#include "sim/small_fn.h"

namespace vroom::net {

enum class WriterDiscipline : std::uint8_t { RoundRobin, Ordered };

class TcpConnection {
 public:
  struct Chunk {
    std::int64_t bytes = 0;
    sim::SmallFn on_first_byte;  // first segment delivered (headers)
    sim::SmallFn on_delivered;   // all bytes delivered
  };

  // `needs_dns` should be true for the first connection to a domain within a
  // page load. `domain_id` (an interner id, see web/intern.h) lets the RTT
  // lookup skip the string map; 0xffffffff means "unknown" and falls back.
  TcpConnection(Network& net, std::string domain, bool needs_dns,
                WriterDiscipline discipline = WriterDiscipline::Ordered,
                std::uint32_t domain_id = 0xffffffffu);

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  const std::string& domain() const { return domain_; }
  sim::Time rtt() const { return rtt_; }
  bool established() const { return established_; }
  // Trace lane for this connection ("conn#<n>"), stable across worker
  // counts because connection ids follow event-loop creation order.
  const std::string& lane() const { return lane_; }

  // Performs DNS + TCP handshake + TLS setup, then fires `on_established`.
  // Must be called exactly once.
  void connect(sim::SmallFn on_established);

  // Per-stream flow-control window; defaults to the network config's value.
  // Multi-stream (HTTP/2) connections enforce it; single-stream HTTP/1.1
  // connections pass 0 to disable.
  void set_stream_window(std::int64_t bytes) { stream_window_ = bytes; }

  // Client -> server. `deliver_at_server` fires when the request reaches the
  // origin (uplink serialization + half RTT). Valid once established.
  void send_request(std::int64_t bytes, sim::SmallFn deliver_at_server);

  // Server -> client. Chunks within one stream drain FIFO; across streams
  // the writer discipline decides: RoundRobin serves the highest-priority
  // active streams first (HTTP/2 priority tree), cycling within a priority;
  // Ordered ignores priority and drains streams in first-write order.
  void send_chunk(std::uint32_t stream_id, int priority, Chunk chunk);
  void send_chunk(Chunk chunk) { send_chunk(0, 0, std::move(chunk)); }

  // Bytes delivered to the client: exact at every chunk callback and once
  // everything sent has arrived; in between it may lag by the segments
  // delivered since the last chunk edge.
  std::int64_t bytes_delivered() const { return bytes_delivered_total_; }

 private:
  static constexpr std::uint32_t kNoChunk = 0xffffffffu;

  struct PendingChunk {
    Chunk chunk;
    std::int64_t size;  // bytes on the wire (at least 1)
    std::int64_t to_send;
    std::int64_t to_deliver;
    std::uint32_t next = kNoChunk;  // the stream's next chunk in chunks_
    bool first_byte_fired = false;
  };
  // A stream is a FIFO of chunks threaded through chunks_ by index. Each
  // cursor names a chunk of the stream, or kNoChunk once it has passed the
  // stream's last chunk; send_chunk() points every such cursor at the chunk
  // it appends, which is where a past-the-end position lands.
  struct Stream {
    std::uint32_t id = 0;
    int priority = 0;
    std::uint32_t tail = kNoChunk;            // last chunk written
    std::uint32_t send_cursor = kNoChunk;     // first chunk with to_send > 0
    std::uint32_t deliver_cursor = kNoChunk;  // first chunk with to_deliver > 0
    std::int64_t inflight = 0;  // un-acknowledged bytes (flow control)
    // Access-link bookkeeping. The link is FIFO, so when a segment is
    // enqueued its place in the stream's delivered bytes is already fixed:
    // it covers bytes linked+1 .. linked+seg.
    std::int64_t linked = 0;                // bytes enqueued on the downlink
    std::uint32_t link_cursor = kNoChunk;   // chunk holding byte linked+1
    std::int64_t link_chunk_start = 0;      // bytes before chunk link_cursor
    std::int64_t uncredited = 0;            // enqueued since the last edge
  };
  // A segment between pump() and the access link.
  struct Segment {
    std::uint32_t stream;
    std::int64_t bytes;
  };
  // A delivered segment's ACK (and WINDOW_UPDATE), keyed as the event the
  // per-segment model scheduled at delivery time. key.seq stays 0 until the
  // segment's edge delivery has run and drawn it.
  struct Ack {
    sim::EventKey key;
    std::uint32_t stream;
    std::int64_t bytes;
  };

  // Exact "no bytes left to send": chunks after send_cursor always have
  // to_send > 0 (pump drains strictly in order), so checking the cursor
  // chunk suffices. Transitions are tracked in `active_` — pick_stream()
  // scans only non-exhausted streams per pumped segment.
  bool exhausted(const Stream& s) const {
    return s.send_cursor == kNoChunk ||
           (s.send_cursor == s.tail && chunks_[s.tail].to_send == 0);
  }
  Stream& stream_for(std::uint32_t id, int priority);
  Stream* pick_stream();
  // Maintain `active_` (sorted indices of non-exhausted streams) across the
  // two transitions: a send_chunk() on a drained stream re-activates it, a
  // pump() that takes a stream's last pending byte exhausts it.
  void activate(std::size_t stream_index);
  void deactivate(std::size_t stream_index);
  void pump();
  // The burst pump() sent into to_link_[queue] reaches the access link.
  void arrive(int queue, std::size_t count);
  // Edge delivery: credits `bytes` stream bytes (and `total` connection
  // bytes) delivered since the previous edge, firing chunk callbacks.
  void deliver(std::uint32_t stream_index, std::int64_t bytes,
               std::int64_t total, std::uint64_t ack_index);
  void on_ack();
  // Applies the ledger's first ACK and drops it from the ledger.
  void apply_ack();
  // Applies the ledger ACKs the per-segment model would already have run.
  void apply_due_acks();
  // Wraps `chunk`'s callbacks to check their order (Network audit only).
  void audit_chunk(Chunk& chunk);
  // Keeps the ledger's first ACK in the heap exactly while an ACK could
  // make pump() send (active_ non-empty) or a trace recorder is attached.
  void sync_ack_timer();

  Network& net_;
  std::string domain_;
  std::string lane_;
  bool needs_dns_;
  WriterDiscipline discipline_;
  sim::Time rtt_;
  bool established_ = false;
  sim::SmallFn on_established_;  // held until the handshake completes

  std::pmr::vector<Stream> streams_;  // in first-write order
  // Every stream's chunks, in write order (see Stream).
  std::pmr::vector<PendingChunk> chunks_;
  // (stream id, index into streams_), sorted by id: stream_for without the
  // linear scan. HTTP/2 opens streams in increasing id order, so inserts
  // append.
  std::pmr::vector<std::pair<std::uint32_t, std::uint32_t>> stream_index_;
  // Sorted indices of non-exhausted streams; the subsequence of streams_
  // both writer disciplines actually consider, so scanning it preserves
  // their pick order exactly while skipping the drained (typical) majority.
  std::pmr::vector<std::size_t> active_;
  std::size_t rr_next_ = 0;

  std::int64_t cwnd_ = 0;
  std::int64_t max_cwnd_ = 0;
  std::int64_t inflight_ = 0;
  std::int64_t stream_window_ = 0;  // 0 = no per-stream flow control
  std::int64_t bytes_delivered_total_ = 0;
  std::int64_t uncredited_total_ = 0;  // enqueued since the last edge

  // Requests serializing on the uplink, oldest first: the link is FIFO, so
  // they clear it in this order.
  sim::Fifo<sim::SmallFn> requests_;
  // Segments on their way to the access link: [0] arrive half an RTT after
  // pump() sent them, [1] a retransmission timeout later (lost once).
  sim::Fifo<Segment> to_link_[2];
  // The ACK ledger: one entry per delivered segment, in delivery order, so
  // keys strictly increase. ledger_base_ is the absolute index of front().
  sim::Fifo<Ack> ledger_;
  std::uint64_t ledger_base_ = 0;
  sim::EventId ack_timer_;
  bool ack_armed_ = false;

  // Delivery audit state, used only while the Network has an audit.
  DeliveryAudit::Connection audit_;
  std::vector<std::uint8_t> audit_fired_;  // per chunk: callbacks fired
};

}  // namespace vroom::net
