#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/network.h"
#include "net/tcp.h"
#include "trace/trace.h"

namespace vroom::net {
namespace {

TEST(LinkTest, SerializesAtLineRate) {
  sim::EventLoop loop;
  Link link(loop, 8e6);  // 1 byte/us
  sim::Time done = -1;
  link.transmit(1000, [&] { done = loop.now(); });
  loop.run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(link.total_bytes(), 1000);
}

TEST(LinkTest, FifoQueueing) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  sim::Time first = -1, second = -1;
  link.transmit(1000, [&] { first = loop.now(); });
  link.transmit(500, [&] { second = loop.now(); });
  loop.run();
  EXPECT_EQ(first, 1000);
  EXPECT_EQ(second, 1500);  // queued behind the first transfer
}

TEST(LinkTest, LaterArrivalStartsWhenIdle) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  sim::Time done = -1;
  loop.schedule_at(5000, [&] { link.transmit(100, [&] { done = loop.now(); }); });
  loop.run();
  EXPECT_EQ(done, 5100);
}

TEST(LinkTest, UtilizationAccounting) {
  sim::EventLoop loop;
  Link link(loop, 8e6);
  link.transmit(1000, [] {});
  loop.schedule_at(2000, [] {});  // extend the clock to 2000us
  loop.run();
  EXPECT_NEAR(link.utilization(), 0.5, 1e-9);
}

TEST(NetworkTest, DomainRttDeterministicAndBounded) {
  sim::EventLoop loop;
  NetworkConfig cfg = NetworkConfig::lte();
  Network a(loop, cfg, 7), b(loop, cfg, 7), c(loop, cfg, 8);
  EXPECT_EQ(a.rtt("x.com"), b.rtt("x.com"));
  EXPECT_GE(a.rtt("x.com"), cfg.cellular_rtt + cfg.domain_rtt_min);
  EXPECT_LE(a.rtt("x.com"), cfg.cellular_rtt + cfg.domain_rtt_max);
  // Different seeds generally draw different wide-area legs.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    const std::string d = "dom" + std::to_string(i) + ".com";
    if (a.rtt(d) != c.rtt(d)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(NetworkTest, SetRttOverrides) {
  sim::EventLoop loop;
  Network n(loop, NetworkConfig::lte(), 1);
  n.set_rtt("a.com", sim::ms(80));
  EXPECT_EQ(n.rtt("a.com"), sim::ms(80));
}

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : net_(loop_, NetworkConfig::lte(), 1) {
    net_.set_rtt("a.com", sim::ms(100));
  }
  sim::EventLoop loop_;
  Network net_;
};

TEST_F(TcpTest, HandshakeTakesDnsPlusRtts) {
  TcpConnection conn(net_, "a.com", /*needs_dns=*/true);
  sim::Time established = -1;
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  // DNS (25ms) + TCP handshake (100ms) + 2 TLS RTTs (TLS 1.2, 200ms).
  EXPECT_EQ(established, sim::ms(325));
  EXPECT_TRUE(conn.established());
}

TEST_F(TcpTest, NoDnsSkipsLookup) {
  TcpConnection conn(net_, "a.com", /*needs_dns=*/false);
  sim::Time established = -1;
  conn.connect([&] { established = loop_.now(); });
  loop_.run();
  EXPECT_EQ(established, sim::ms(300));
}

TEST_F(TcpTest, SmallResponseIsLatencyBound) {
  TcpConnection conn(net_, "a.com", false);
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = 1000;  // one segment
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  // Established at 300ms; then half RTT + serialization (~0.8ms at 10Mbps).
  EXPECT_GT(done, sim::ms(350));
  EXPECT_LT(done, sim::ms(352));
}

TEST_F(TcpTest, LargeTransferApproachesLinkRate) {
  TcpConnection conn(net_, "a.com", false);
  const std::int64_t bytes = 3'000'000;
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = bytes;
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  const double secs = sim::to_seconds(done - sim::ms(300));
  const double ideal = bytes * 8.0 / 10e6;
  EXPECT_GT(secs, ideal);           // slow start costs something
  EXPECT_LT(secs, ideal * 1.5);     // but the link ends up well utilized
}

TEST_F(TcpTest, SlowStartMakesSmallTransfersRoundTripBound) {
  // 64 KB needs ~3 windows at init cwnd 10*1460: observable extra RTTs.
  TcpConnection conn(net_, "a.com", false);
  sim::Time done = -1;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = 64'000;
    c.on_delivered = [&] { done = loop_.now(); };
    conn.send_chunk(std::move(c));
  });
  loop_.run();
  const sim::Time after_setup = done - sim::ms(300);
  // Serialization alone would be ~51ms; slow start adds at least 2 extra
  // round trips beyond the first half-RTT.
  EXPECT_GT(after_setup, sim::ms(51 + 150));
}

TEST_F(TcpTest, ChunksDeliverInOrderWithCallbacks) {
  TcpConnection conn(net_, "a.com", false);
  std::vector<int> order;
  sim::Time first_byte_b = -1;
  conn.connect([&] {
    TcpConnection::Chunk a;
    a.bytes = 10'000;
    a.on_delivered = [&] { order.push_back(1); };
    conn.send_chunk(std::move(a));
    TcpConnection::Chunk b;
    b.bytes = 10'000;
    b.on_first_byte = [&] { first_byte_b = loop_.now(); };
    b.on_delivered = [&] { order.push_back(2); };
    conn.send_chunk(std::move(b));
  });
  loop_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GT(first_byte_b, 0);
}

TEST_F(TcpTest, RequestReachesServerAfterUplinkAndHalfRtt) {
  TcpConnection conn(net_, "a.com", false);
  sim::Time at_server = -1;
  conn.connect([&] {
    conn.send_request(450, [&] { at_server = loop_.now(); });
  });
  loop_.run();
  // 450B at 5Mbps = 720us, + 50ms half RTT.
  EXPECT_EQ(at_server, sim::ms(300) + 720 + sim::ms(50));
}

TEST_F(TcpTest, TwoConnectionsShareTheAccessLink) {
  net_.set_rtt("b.com", sim::ms(100));
  TcpConnection c1(net_, "a.com", false);
  TcpConnection c2(net_, "b.com", false);
  sim::Time d1 = -1, d2 = -1;
  const std::int64_t bytes = 1'000'000;
  auto send = [&](TcpConnection& c, sim::Time& out) {
    c.connect([&c, &out, bytes, this] {
      TcpConnection::Chunk ch;
      ch.bytes = bytes;
      ch.on_delivered = [&out, this] { out = loop_.now(); };
      c.send_chunk(std::move(ch));
    });
  };
  send(c1, d1);
  send(c2, d2);
  loop_.run();
  // Together they move 2 MB; the shared 10 Mbps link needs >= 1.6s.
  EXPECT_GT(std::max(d1, d2), sim::from_seconds(2 * bytes * 8.0 / 10e6));
}

// Records every chunk callback as "<chunk>.<first|done>" with its time.
struct CallbackLog {
  std::vector<std::string> names;
  std::vector<sim::Time> times;

  TcpConnection::Chunk chunk(sim::EventLoop& loop, const std::string& name,
                             std::int64_t bytes) {
    TcpConnection::Chunk c;
    c.bytes = bytes;
    c.on_first_byte = [this, &loop, name] { add(name + ".first", loop); };
    c.on_delivered = [this, &loop, name] { add(name + ".done", loop); };
    return c;
  }
  void add(const std::string& name, sim::EventLoop& loop) {
    names.push_back(name);
    times.push_back(loop.now());
  }
};

TEST_F(TcpTest, CallbackTimesFollowTheLinkArithmetic) {
  // Five segments leave in one burst (the initial window is ten) and reach
  // the access link half an RTT later; each chunk edge then fires when the
  // FIFO link finishes serializing the segment that holds it.
  TcpConnection conn(net_, "a.com", false);
  const std::int64_t mss = net_.config().mss_bytes;
  CallbackLog log;
  sim::Time sent = -1;
  conn.connect([&] {
    sent = loop_.now();
    conn.send_chunk(log.chunk(loop_, "a", 2 * mss));
    conn.send_chunk(log.chunk(loop_, "b", 3 * mss));
  });
  loop_.run();

  sim::EventLoop ref_loop;
  Link ref(ref_loop, net_.config().downlink_bps);
  ref_loop.advance_to(sent + sim::ms(50));
  std::vector<sim::Time> done;
  for (int i = 0; i < 5; ++i) done.push_back(ref.enqueue(mss));
  EXPECT_EQ(log.names, (std::vector<std::string>{"a.first", "a.done",
                                                 "b.first", "b.done"}));
  EXPECT_EQ(log.times,
            (std::vector<sim::Time>{done[0], done[1], done[2], done[4]}));
  EXPECT_EQ(conn.bytes_delivered(), 5 * mss);
  EXPECT_EQ(net_.downlink().busy_until(), done[4]);
}

// Runs chunks of 1000, 5 and 3000 bytes on a network whose loss draws are
// (lost, kept, kept, kept, kept): the first segment takes an RTO, so the
// second segment's credit finishes the first chunk and the third's crosses
// two more chunk edges.
CallbackLog lossy_edge_crossing(bool traced) {
  NetworkConfig cfg = NetworkConfig::lte();
  cfg.loss_rate = 0.5;
  std::uint64_t seed = 1;
  for (;; ++seed) {
    sim::EventLoop probe_loop;
    Network probe(probe_loop, cfg, seed);
    std::vector<bool> draws;
    for (int i = 0; i < 5; ++i) draws.push_back(probe.draw_loss());
    if (draws == std::vector<bool>{true, false, false, false, false}) break;
  }
  sim::EventLoop loop;
  std::optional<trace::Recorder> recorder;
  if (traced) recorder.emplace(loop);
  Network net(loop, cfg, seed);
  net.set_rtt("a.com", sim::ms(100));
  TcpConnection conn(net, "a.com", false);
  CallbackLog log;
  conn.connect([&] {
    conn.send_chunk(log.chunk(loop, "a", 1000));
    conn.send_chunk(log.chunk(loop, "b", 5));
    conn.send_chunk(log.chunk(loop, "c", 3000));
  });
  loop.run();
  EXPECT_EQ(conn.bytes_delivered(), 4005);
  return log;
}

TEST(TcpLossTest, OneDeliveryCrossingTwoChunkEdgesFiresInOrder) {
  const CallbackLog log = lossy_edge_crossing(/*traced=*/false);
  ASSERT_EQ(log.names,
            (std::vector<std::string>{"a.first", "a.done", "b.first",
                                      "b.done", "c.first", "c.done"}));
  // Established at 300ms, the burst reaches the 10 Mbps link at 350ms. The
  // 5-byte segment (4us) credits chunk a's first bytes; the next 1460-byte
  // delivery (1168us) ends a, carries all of b and starts c. Chunk c
  // completes when the lost 1000-byte segment lands one RTO (250ms) later.
  const sim::Time t1 = sim::ms(350) + 4;
  const sim::Time t2 = t1 + 1168;
  EXPECT_EQ(log.times,
            (std::vector<sim::Time>{t1, t2, t2, t2, t2,
                                    sim::ms(350 + 250) + 800}));
  // A trace recorder keeps every ACK in the heap; callbacks do not move.
  const CallbackLog traced = lossy_edge_crossing(/*traced=*/true);
  EXPECT_EQ(traced.names, log.names);
  EXPECT_EQ(traced.times, log.times);
}

TEST_F(TcpTest, NextFlightAfterIdleGapReflectsEveryDueAck) {
  // The first chunk is one full initial window. Its ACKs return while the
  // connection has nothing to send, so none of them needs a heap event, yet
  // the next send_chunk must see all ten: a 20-segment window, so the
  // whole second chunk leaves in one flight.
  TcpConnection conn(net_, "a.com", false);
  const std::int64_t mss = net_.config().mss_bytes;
  sim::Time resumed = -1, done = -1;
  conn.connect([&] {
    TcpConnection::Chunk first;
    first.bytes = 10 * mss;
    conn.send_chunk(std::move(first));
    loop_.schedule_in(sim::seconds(2), [&] {
      resumed = loop_.now();
      TcpConnection::Chunk second;
      second.bytes = 20 * mss;
      second.on_delivered = [&] { done = loop_.now(); };
      conn.send_chunk(std::move(second));
    });
  });
  loop_.run();
  EXPECT_EQ(done, resumed + sim::ms(50) +
                      20 * net_.downlink().tx_time(mss));
  EXPECT_EQ(conn.bytes_delivered(), 30 * mss);
}

TEST_F(TcpTest, SendChunkBeforeAcksReturnWaitsForThem) {
  // The second chunk is queued after the first window reached the client
  // but before any ACK is back at the origin: it must wait for the first
  // ACK (one RTT after the burst left, plus one serialization), not borrow
  // window from ACKs that are still in flight.
  TcpConnection conn(net_, "a.com", false);
  const std::int64_t mss = net_.config().mss_bytes;
  const sim::Time tx = net_.downlink().tx_time(mss);
  sim::Time sent = -1, first_byte = -1;
  conn.connect([&] {
    sent = loop_.now();
    TcpConnection::Chunk first;
    first.bytes = 10 * mss;
    conn.send_chunk(std::move(first));
    loop_.schedule_in(sim::ms(70), [&] {
      TcpConnection::Chunk second;
      second.bytes = 10 * mss;
      second.on_first_byte = [&] { first_byte = loop_.now(); };
      conn.send_chunk(std::move(second));
    });
  });
  loop_.run();
  EXPECT_EQ(first_byte, sent + sim::ms(100) + tx + sim::ms(50) + tx);
}

TEST_F(TcpTest, TwoMegabyteTransferEventCountIsPinned) {
  // 1370 segments. One event per send burst, a delivery event only for the
  // segments holding the chunk's first and last byte, and an ACK event
  // only while bytes remain unsent. The window limits this transfer
  // throughout, so each ACK releases a burst of its own: about two events
  // per segment, against three (4111 in all) when every segment had its
  // own arrival, delivery and ACK. A change here changes every load's
  // sim_events.
  TcpConnection conn(net_, "a.com", false);
  bool delivered = false;
  conn.connect([&] {
    TcpConnection::Chunk c;
    c.bytes = 2'000'000;
    c.on_delivered = [&] { delivered = true; };
    conn.send_chunk(std::move(c));
  });
  EXPECT_EQ(loop_.run(), 2488u);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(conn.bytes_delivered(), 2'000'000);
}

}  // namespace
}  // namespace vroom::net
