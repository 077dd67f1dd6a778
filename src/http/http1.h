// HTTP/1.1 connection group: up to six parallel connections per domain, one
// outstanding request per connection, no server push.
//
// Requests beyond the parallelism limit queue (higher `Request::priority`
// first, FIFO within a priority) — the browser behaviour whose head-of-line
// blocking HTTP/2 was designed to remove.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "http/exchange.h"

namespace vroom::http {

class Http1Group : public ExchangeSession {
 public:
  static constexpr int kMaxConnections = 6;

  // `domain_id` is the page world's interner id for `domain` (see
  // web/intern.h); 0xffffffff when the caller does not intern.
  Http1Group(net::Network& net, std::string domain, RequestHandler& handler,
             std::uint32_t domain_id = 0xffffffffu);

  void fetch(Request req, ResponseHandlers handlers) override;

 private:
  struct Conn {
    std::unique_ptr<net::TcpConnection> tcp;
    bool connecting = false;
    bool busy = false;
  };

  void pump();
  void claim(std::uint32_t conn, Exchange& x);
  void respond(Exchange& x) override;

  std::uint32_t domain_id_;
  std::vector<std::unique_ptr<Conn>> conns_;
  // Priority order (desc), FIFO within a priority.
  std::pmr::vector<Exchange*> queue_;
  bool dns_done_ = false;  // only the first connection pays the DNS lookup
};

}  // namespace vroom::http
