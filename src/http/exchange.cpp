#include "http/exchange.h"

#include <new>
#include <utility>

namespace vroom::http {

ExchangeSession::ExchangeSession(net::Network& net, std::string domain,
                                 RequestHandler& handler)
    : net_(net), domain_(std::move(domain)), handler_(handler) {}

ExchangeSession::~ExchangeSession() {
  // A load cut short by its timeout leaves exchanges in flight; they die
  // with the session like the recycled ones.
  while (records_ != nullptr) {
    Exchange* x = records_;
    records_ = x->next_record_;
    x->~Exchange();
    net_.memory()->deallocate(x, sizeof(Exchange), alignof(Exchange));
  }
}

Exchange& ExchangeSession::open(Request req, ResponseHandlers handlers) {
  Exchange* x = free_;
  if (x != nullptr) {
    free_ = x->next_free_;
  } else {
    x = ::new (net_.memory()->allocate(sizeof(Exchange), alignof(Exchange)))
        Exchange();
    x->next_record_ = records_;
    records_ = x;
  }
  x->req = std::move(req);
  x->handlers = std::move(handlers);
  x->pending = 1;
  return *x;
}

void ExchangeSession::release(Exchange& x) {
  if (--x.pending > 0) return;
  x.next_free_ = free_;
  free_ = &x;
}

void ExchangeSession::send(net::TcpConnection& conn, Exchange& x,
                           std::int64_t request_bytes) {
  x.started = net_.loop().now();
  conn.send_request(request_bytes, [this, &x] {
    // At the origin: think time (+ any policy-specific delay, e.g.
    // on-the-fly HTML parsing) before the response starts to flow.
    x.reply = handler_.handle(x.req);
    const sim::Time delay = net_.config().server_think + x.reply.extra_delay;
    net_.loop().schedule_in(delay, [this, &x] { respond(x); });
  });
}

std::int64_t ExchangeSession::make_meta(Exchange& x,
                                        std::int64_t header_bytes) {
  ResponseMeta& meta = x.meta;
  meta.url = std::move(x.req.url);
  meta.url_id = x.req.url_id;
  meta.body_bytes = x.reply.not_modified ? 0 : x.reply.body_bytes;
  meta.hints = std::move(x.reply.hints);
  meta.pushed = false;
  meta.not_modified = x.reply.not_modified;
  return (x.reply.not_modified ? k304Bytes
                               : header_bytes + x.reply.body_bytes) +
         meta.hints.header_bytes();
}

}  // namespace vroom::http
