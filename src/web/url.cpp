#include "web/url.h"

#include <charconv>

namespace vroom::web {
namespace {

// Parses an unsigned integer starting at `pos`; advances `pos` past it.
template <typename T>
bool parse_uint(std::string_view s, std::size_t& pos, T& out) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr == begin) return false;
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

}  // namespace

std::string make_url(std::string_view domain, std::uint32_t page_id,
                     std::uint32_t resource_id, std::uint64_t version,
                     std::uint32_t user, std::string_view ext) {
  std::string url;
  url.reserve(domain.size() + ext.size() + 32);
  append_url(url, domain, page_id, resource_id, version, user, ext);
  return url;
}

void append_url(std::string& out, std::string_view domain,
                std::uint32_t page_id, std::uint32_t resource_id,
                std::uint64_t version, std::uint32_t user,
                std::string_view ext) {
  out.append(domain);
  out.append("/p").append(std::to_string(page_id));
  out.append("/r").append(std::to_string(resource_id));
  out.append("v").append(std::to_string(version));
  if (user != 0) out.append("u").append(std::to_string(user));
  out.push_back('.');
  out.append(ext);
}

std::optional<ParsedUrl> parse_url(std::string_view url) {
  const std::size_t slash = url.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  ParsedUrl p;
  p.domain = std::string(url.substr(0, slash));
  std::size_t pos = slash + 1;
  if (pos >= url.size() || url[pos] != 'p') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.page_id)) return std::nullopt;
  if (pos >= url.size() || url[pos] != '/') return std::nullopt;
  ++pos;
  if (pos >= url.size() || url[pos] != 'r') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.resource_id)) return std::nullopt;
  if (pos >= url.size() || url[pos] != 'v') return std::nullopt;
  ++pos;
  if (!parse_uint(url, pos, p.version)) return std::nullopt;
  if (pos < url.size() && url[pos] == 'u') {
    ++pos;
    if (!parse_uint(url, pos, p.user)) return std::nullopt;
  }
  if (pos >= url.size() || url[pos] != '.') return std::nullopt;
  ++pos;
  // The extension must consume the remainder of the URL and look like one
  // make_url() emits: non-empty, alphanumeric only. Without this check the
  // catch-all tail accepted any garbage suffix ("r2v3.js.evil" parsed as
  // ext="js.evil", parse_ok=true), the same partial-parse laxness
  // harness/env.cpp's strict contract forbids.
  const std::string_view ext = url.substr(pos);
  if (ext.empty()) return std::nullopt;
  for (const char c : ext) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum) return std::nullopt;
  }
  p.ext = std::string(ext);
  return p;
}

std::string url_domain(std::string_view url) {
  const std::size_t slash = url.find('/');
  return std::string(slash == std::string_view::npos ? url
                                                     : url.substr(0, slash));
}

}  // namespace vroom::web
