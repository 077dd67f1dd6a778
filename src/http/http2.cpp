#include "http/http2.h"

#include <utility>

#include "trace/trace.h"
#include "web/resource.h"
#include "web/url.h"

namespace vroom::http {

namespace {
std::string stream_lane(std::uint32_t stream) {
  return "stream#" + std::to_string(stream);
}
}  // namespace

Http2Session::Http2Session(net::Network& net, std::string domain,
                           RequestHandler& handler, PushObserver push_observer,
                           net::WriterDiscipline discipline,
                           std::uint32_t domain_id)
    : ExchangeSession(net, std::move(domain), handler),
      push_observer_(std::move(push_observer)),
      discipline_(discipline),
      domain_id_(domain_id),
      pending_(net.memory()) {}

void Http2Session::ensure_connected() {
  if (conn_) return;
  conn_ = std::make_unique<net::TcpConnection>(net_, domain_,
                                               /*needs_dns=*/true,
                                               discipline_, domain_id_);
  connecting_ = true;
  conn_->connect([this] {
    connecting_ = false;
    // Nothing can fetch into pending_ while it drains: connecting_ is off.
    for (Exchange* x : pending_) dispatch(*x);
    pending_.clear();
  });
}

void Http2Session::fetch(Request req, ResponseHandlers handlers) {
  ensure_connected();
  Exchange& x = open(std::move(req), std::move(handlers));
  if (connecting_) {
    pending_.push_back(&x);
    return;
  }
  dispatch(x);
}

void Http2Session::dispatch(Exchange& x) {
  // HPACK: the first request on the connection populates the dynamic table;
  // later requests reference it.
  const std::int64_t req_bytes = requests_sent_++ == 0
                                     ? kH2RequestHeaderBytesFirst
                                     : kH2RequestHeaderBytesIndexed;
  send(*conn_, x, req_bytes);
}

void Http2Session::respond(Exchange& x) {
  const std::int64_t resp_header = responses_sent_++ == 0
                                       ? kResponseHeaderBytesFirst
                                       : kResponseHeaderBytesIndexed;
  net::TcpConnection::Chunk chunk;
  chunk.bytes = make_meta(x, resp_header);
  x.stream = next_stream_;
  x.pending += static_cast<int>(x.reply.pushes.size());
  chunk.on_first_byte = [this, &x] { on_headers(x); };
  chunk.on_delivered = [this, &x] {
    if (trace::Recorder* tr = trace::of(net_.loop())) {
      tr->complete(trace::Layer::Http, domain_, stream_lane(x.stream),
                   "stream", x.started,
                   {trace::arg("url", x.meta.url),
                    trace::arg("bytes", x.meta.body_bytes)});
    }
    if (x.handlers.on_complete) x.handlers.on_complete(x.meta);
    release(x);
  };
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    tr->counters().add("http.h2_streams");
  }
  conn_->send_chunk(next_stream_++, x.req.priority, std::move(chunk));

  // Pushed content follows on its own streams; under the Ordered discipline
  // it drains right after the triggering response. Pushed streams carry the
  // priority of their content class so they cannot starve client-requested
  // critical resources.
  const sim::Time pushed_at = net_.loop().now();
  for (std::uint32_t i = 0; i < x.reply.pushes.size(); ++i) {
    const PushItem& p = x.reply.pushes[i];
    const std::uint32_t sid = next_stream_++;
    net::TcpConnection::Chunk pc;
    pc.bytes = kResponseHeaderBytes + p.body_bytes;
    pc.on_delivered = [this, &x, i, sid, pushed_at] {
      const PushItem& item = x.reply.pushes[i];
      if (trace::Recorder* tr = trace::of(net_.loop())) {
        tr->complete(trace::Layer::Http, domain_, stream_lane(sid),
                     "push.stream", pushed_at,
                     {trace::arg("url", item.url),
                      trace::arg("bytes", item.body_bytes)});
        tr->counters().add("http.h2_pushed_streams");
        tr->counters().add("http.h2_push_bytes", item.body_bytes);
      }
      if (push_observer_.on_complete) {
        push_observer_.on_complete(item.url, item.body_bytes);
      }
      release(x);
    };
    const auto parsed = web::parse_url(p.url);
    const bool processable =
        web::is_processable(web::type_from_ext(parsed ? parsed->ext : "bin"));
    conn_->send_chunk(sid, processable ? 2 : 0, std::move(pc));
  }
}

void Http2Session::on_headers(Exchange& x) {
  const std::vector<PushItem>& promises = x.reply.pushes;
  if (trace::Recorder* tr = trace::of(net_.loop())) {
    // PUSH_PROMISE frames become visible to the client with the
    // triggering response's headers.
    const std::string lane = stream_lane(x.stream);
    for (const PushItem& p : promises) {
      tr->instant(trace::Layer::Http, domain_, lane, "push_promise",
                  {trace::arg("url", p.url),
                   trace::arg("bytes", p.body_bytes)});
      tr->counters().add("http.h2_push_promises");
    }
  }
  if (push_observer_.on_promise) {
    for (const PushItem& p : promises) {
      push_observer_.on_promise(p.url, p.body_bytes);
    }
  }
  if (x.handlers.on_headers) x.handlers.on_headers(x.meta);
}

}  // namespace vroom::http
