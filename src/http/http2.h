// HTTP/2 session model: one TCP connection per domain, multiplexed requests,
// server push.
//
// Each response (and each pushed resource) occupies its own stream. With the
// RoundRobin writer discipline frames interleave across streams — stock
// HTTP/2 behaviour; with Ordered, responses drain in the order the server
// wrote them — the ordered response writer Vroom adds to Mahimahi (§5.1).
// The PUSH_PROMISE becomes visible to the client when the triggering
// response's headers arrive.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "http/exchange.h"

namespace vroom::http {

class Http2Session : public ExchangeSession {
 public:
  // `domain_id` is the page world's interner id for `domain` (see
  // web/intern.h); 0xffffffff when the caller does not intern.
  Http2Session(net::Network& net, std::string domain, RequestHandler& handler,
               PushObserver push_observer,
               net::WriterDiscipline discipline =
                   net::WriterDiscipline::RoundRobin,
               std::uint32_t domain_id = 0xffffffffu);

  void fetch(Request req, ResponseHandlers handlers) override;

  std::int64_t bytes_received() const { return conn_->bytes_delivered(); }

 private:
  void ensure_connected();
  void dispatch(Exchange& x);
  void respond(Exchange& x) override;
  // The response's headers reached the client: push promises, then hints.
  void on_headers(Exchange& x);

  PushObserver push_observer_;
  net::WriterDiscipline discipline_;
  std::uint32_t domain_id_;
  std::unique_ptr<net::TcpConnection> conn_;
  bool connecting_ = false;
  std::uint32_t next_stream_ = 1;
  int requests_sent_ = 0;   // HPACK dynamic-table warm-up accounting
  int responses_sent_ = 0;
  std::pmr::vector<Exchange*> pending_;  // fetched while connecting
};

}  // namespace vroom::http
