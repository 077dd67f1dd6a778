#include "http/http1.h"

#include <algorithm>
#include <utility>

#include "trace/trace.h"

namespace vroom::http {

Http1Group::Http1Group(net::Network& net, std::string domain,
                       RequestHandler& handler, std::uint32_t domain_id)
    : ExchangeSession(net, std::move(domain), handler),
      domain_id_(domain_id),
      queue_(net.memory()) {}

void Http1Group::fetch(Request req, ResponseHandlers handlers) {
  Exchange& x = open(std::move(req), std::move(handlers));
  x.started = net_.loop().now();  // queued; claim() measures the wait
  // Insert keeping the queue ordered by priority (desc), FIFO within equal
  // priorities.
  auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Exchange* e) {
    return e->req.priority < x.req.priority;
  });
  queue_.insert(it, &x);
  pump();
}

void Http1Group::claim(std::uint32_t conn, Exchange& x) {
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    const sim::Time waited = net_.loop().now() - x.started;
    if (waited > 0) {
      // All six connections were occupied while this request sat queued:
      // HTTP/1.1's head-of-line blocking, the cost HTTP/2 multiplexing (and
      // eventually push) was designed to remove.
      tr->complete(trace::Layer::Http, domain_, "h1-queue", "h1.queue_wait",
                   x.started, {trace::arg("url", x.req.url)});
      tr->counters().add("http.h1_hol_waits");
      tr->counters().add("http.h1_hol_wait_us", waited);
    }
    tr->counters().add("http.h1_requests");
  }
  Conn& c = *conns_[conn];
  c.busy = true;
  x.conn = conn;
  send(*c.tcp, x, kH1RequestHeaderBytes);
}

void Http1Group::pump() {
  if (queue_.empty()) return;
  // Reuse an idle established connection first.
  for (std::uint32_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = *conns_[i];
    if (!c.busy && !c.connecting && c.tcp->established()) {
      Exchange& x = *queue_.front();
      queue_.erase(queue_.begin());
      claim(i, x);
      if (queue_.empty()) return;
    }
  }
  // Open new connections up to the limit while work remains.
  while (!queue_.empty() &&
         conns_.size() < static_cast<std::size_t>(kMaxConnections)) {
    auto cp = std::make_unique<Conn>();
    Conn* c = cp.get();
    c->tcp = std::make_unique<net::TcpConnection>(
        net_, domain_, /*needs_dns=*/!dns_done_,
        net::WriterDiscipline::Ordered, domain_id_);
    dns_done_ = true;
    c->connecting = true;
    conns_.push_back(std::move(cp));
    c->tcp->connect([this, c] {
      c->connecting = false;
      pump();
    });
    // The connection only picks work up once established (via pump), so a
    // queued request may be taken by whichever connection frees up first.
    break;  // open one at a time per pump; re-entered on events
  }
  // If every connection is busy/connecting, the queue drains later.
}

void Http1Group::respond(Exchange& x) {
  net::TcpConnection::Chunk chunk;
  chunk.bytes = make_meta(x, kResponseHeaderBytes);
  chunk.on_first_byte = [&x] {
    if (x.handlers.on_headers) x.handlers.on_headers(x.meta);
  };
  chunk.on_delivered = [this, &x] {
    Conn& c = *conns_[x.conn];
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->complete(trace::Layer::Http, domain_, c.tcp->lane(), "h1.fetch",
                   x.started,
                   {trace::arg("url", x.meta.url),
                    trace::arg("bytes", x.meta.body_bytes)});
    }
    if (x.handlers.on_complete) x.handlers.on_complete(x.meta);
    c.busy = false;
    release(x);
    pump();
  };
  conns_[x.conn]->tcp->send_chunk(std::move(chunk));
}

}  // namespace vroom::http
