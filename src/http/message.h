// HTTP request/response message model and the client/server interfaces the
// protocol sessions bridge.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "http/headers.h"
#include "sim/time.h"
#include "web/device.h"
#include "web/intern.h"

namespace vroom::http {

// HTTP/1.1 sends headers uncompressed (UA, accept lists, cookies) on every
// request. HTTP/2's HPACK indexes repeated fields into a per-connection
// dynamic table: the first request pays close to full price, subsequent
// ones only the non-repeating bytes (path, a few varying fields).
constexpr std::int64_t kH1RequestHeaderBytes = 1100;
constexpr std::int64_t kH2RequestHeaderBytesFirst = 450;
constexpr std::int64_t kH2RequestHeaderBytesIndexed = 120;
constexpr std::int64_t kResponseHeaderBytesFirst = 350;
constexpr std::int64_t kResponseHeaderBytesIndexed = 180;
// Legacy aliases used by sizing arithmetic that predates the HPACK model.
constexpr std::int64_t kH2RequestHeaderBytes = kH2RequestHeaderBytesFirst;
constexpr std::int64_t kResponseHeaderBytes = kResponseHeaderBytesFirst;
constexpr std::int64_t k304Bytes = 250;  // revalidation "Not Modified"

struct Request {
  std::string url;
  // Interned id in the page world's interner (kInvalidId when the caller
  // does not intern, e.g. protocol-level tests). Servers and sessions pass
  // it through so the client never re-hashes the URL string.
  web::UrlId url_id = web::kInvalidId;
  bool is_document = false;  // HTML navigation/iframe fetch
  int priority = 0;          // larger = more urgent (client-side queueing)
  web::DeviceProfile device;
  std::uint32_t user = 0;    // cookie identity for the *target* domain only
  bool conditional = false;  // If-None-Match revalidation of a cached copy
};

struct ResponseMeta {
  std::string url;
  web::UrlId url_id = web::kInvalidId;  // copied from the request
  std::int64_t body_bytes = 0;
  HintSet hints;
  bool pushed = false;
  bool not_modified = false;  // 304 — body_bytes is zero
};

struct ResponseHandlers {
  // Fires when the response headers reach the client (hints become visible
  // here, before the body finishes). The handler may take the hints: the
  // session reads nothing but the URL, id and sizes after it returns.
  std::function<void(ResponseMeta&)> on_headers;
  // Fires when the full body has been received.
  std::function<void(const ResponseMeta&)> on_complete;
};

// Server-push callbacks surfaced to the page loader.
struct PushObserver {
  // PUSH_PROMISE: client now knows the URL is on its way.
  std::function<void(const std::string& url, std::int64_t bytes)> on_promise;
  std::function<void(const std::string& url, std::int64_t bytes)> on_complete;
};

struct PushItem {
  std::string url;
  std::int64_t body_bytes = 0;
};

// What the origin decides to send back for one request.
struct ServerReply {
  std::int64_t body_bytes = 0;
  HintSet hints;
  std::vector<PushItem> pushes;   // same-domain content pushes, in order
  sim::Time extra_delay = 0;      // e.g. on-the-fly HTML analysis (§4.1.2)
  bool not_modified = false;
};

// Implemented by server/OriginServer.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual ServerReply handle(const Request& req) = 0;
};

// Client-side view of one domain (an HTTP/1.1 connection group or an HTTP/2
// session).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void fetch(Request req, ResponseHandlers handlers) = 0;
  virtual const std::string& domain() const = 0;
};

}  // namespace vroom::http
