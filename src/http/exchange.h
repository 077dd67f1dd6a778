// One request/response exchange, and the session base both HTTP versions
// share.
//
// Every request a session carries gets one `Exchange` record: the request,
// the client's handlers, the origin's reply and the response metadata the
// client sees. The record is opened when the client fetches and released
// once the response and any pushes it triggered have been delivered; every
// callback on the way (uplink arrival, origin think time, chunk delivery)
// captures only the session and a reference to the record, so each fits
// sim::SmallFn's inline buffer.
//
// `ExchangeSession` owns the records and the request leg both versions run
// the same way: send the request, let the origin handle it on arrival, and
// write the response after its think time. Records come from the network's
// memory resource (DESIGN.md §10) and are reused through the session's free
// list, so a session allocates each concurrent exchange slot once; their
// strings and vectors stay on the heap and are destroyed with the session.
#pragma once

#include <cstdint>
#include <string>

#include "http/message.h"
#include "net/tcp.h"

namespace vroom::http {

struct Exchange {
  Request req;
  ResponseHandlers handlers;
  ServerReply reply;  // the origin's decision, filled when the request lands
  ResponseMeta meta;  // filled when the response is written
  // When the request was sent: the start of its trace span. HTTP/1.1 also
  // stamps it when the request joins the queue, for the head-of-line wait.
  sim::Time started = 0;
  std::uint32_t conn = 0;    // HTTP/1.1: the group's connection carrying it
  std::uint32_t stream = 0;  // HTTP/2: the response's stream id
  // Chunk deliveries still to come (the response plus its pushes); the
  // record is recycled when the last one has run.
  int pending = 0;

 private:
  friend class ExchangeSession;
  Exchange* next_record_ = nullptr;  // every record the session allocated
  Exchange* next_free_ = nullptr;
};

class ExchangeSession : public Endpoint {
 public:
  ~ExchangeSession() override;
  ExchangeSession(const ExchangeSession&) = delete;
  ExchangeSession& operator=(const ExchangeSession&) = delete;

  const std::string& domain() const override { return domain_; }

 protected:
  ExchangeSession(net::Network& net, std::string domain,
                  RequestHandler& handler);

  // Takes a record for a new request (pending = 1: its response).
  Exchange& open(Request req, ResponseHandlers handlers);
  // One of the exchange's deliveries has run; recycles the record after
  // the last.
  void release(Exchange& x);

  // Sends `x`'s request over `conn` (`request_bytes` on the wire). The
  // origin handles it when it arrives, and respond(x) runs after the
  // origin's think time.
  void send(net::TcpConnection& conn, Exchange& x,
            std::int64_t request_bytes);
  // Writes `x`'s response; the reply is in x.reply.
  virtual void respond(Exchange& x) = 0;
  // Moves the request URL and the reply's hints into x.meta and returns
  // the response's bytes on the wire given its header bytes. The request's
  // URL is gone afterwards.
  std::int64_t make_meta(Exchange& x, std::int64_t header_bytes);

  net::Network& net_;
  const std::string domain_;
  RequestHandler& handler_;

 private:
  Exchange* records_ = nullptr;
  Exchange* free_ = nullptr;
};

}  // namespace vroom::http
