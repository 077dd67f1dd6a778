// Realization of a PageModel at a concrete (wall time, device, user, load).
//
// Realization turns each resource slot into a concrete URL and size by
// applying its volatility class:
//   Stable/Daily/Hourly : version = (time + phase) / rotation_period
//   PerLoad             : version derived from the load nonce (never repeats)
//   Personalized        : hour-scale version plus a per-user URL component
// Device-conditional slots additionally embed the device's value on the
// customization axis. Two instances "share" a resource iff the realized URLs
// match — the same set-intersection semantics the paper uses for page
// persistence (Fig 7), device similarity (Fig 9), and server accuracy
// (Fig 21).
#pragma once

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/arena.h"
#include "sim/time.h"
#include "web/device.h"
#include "web/intern.h"
#include "web/page_model.h"
#include "web/url.h"

namespace vroom::web {

struct LoadIdentity {
  sim::Time wall_time = 0;
  DeviceProfile device;
  std::uint32_t user = 0;  // 0 = generic/no cookie
  std::uint64_t nonce = 0; // distinguishes back-to-back loads
};

struct InstanceResource {
  std::uint32_t template_id = 0;
  // View of the interner's stable arena copy (the URL is pre-interned at
  // build, so realization stores no second string). Dies with the instance.
  std::string_view url;
  UrlId url_id = kInvalidId;  // pre-interned in the instance's interner
  std::int64_t size = 0;
};

// Computes the realized rotation version of a resource at a wall time.
std::uint64_t rotation_version(const Resource& r, sim::Time wall_time);

// Realized size: base size with deterministic per-version jitter.
std::int64_t realized_size(const Resource& r, std::uint64_t version);

// What varies per slot between realizations. Everything else in a realized
// URL (domain, page id, resource id, extension) is fixed by the template, so
// for one slot make_url is injective in the key: two realizations of a slot
// share a URL iff their keys are equal. Offline resolution intersects crawls
// on keys and formats strings only for the sets callers ask for.
struct RealizedKey {
  std::uint64_t full_version = 0;  // rotation/nonce version + device variant
  std::uint32_t user_part = 0;     // non-zero only for Personalized slots

  bool operator==(const RealizedKey&) const = default;
};

// Realizes slot keys under one identity. The identity's per-load constant
// (the PerLoad nonce seed) is computed once at construction, so realizing
// every slot of a page hashes the nonce once, not once per slot.
class KeyRealizer {
 public:
  explicit KeyRealizer(const LoadIdentity& id);

  RealizedKey operator()(const Resource& r) const { return (*this)(r, user_); }
  // Realizes as if the load carried `user`'s cookie instead of the
  // identity's: an offline crawler presents the client's cookie only to
  // domains the serving organization controls.
  RealizedKey operator()(const Resource& r, std::uint32_t user) const;

 private:
  sim::Time wall_time_;
  std::uint64_t perload_seed_;
  DeviceProfile device_;
  std::uint32_t user_;
};

// One slot's key under an identity.
RealizedKey realize_key(const Resource& r, const LoadIdentity& id);

// The canonical URL of slot `r` of `model` realized at `key`.
std::string format_url(const PageModel& model, const Resource& r,
                       const RealizedKey& key);
// format_url() appending to `out`, for callers that reuse one buffer.
void append_url(std::string& out, const PageModel& model, const Resource& r,
                const RealizedKey& key);

// Realizes one slot's URL under an identity: format_url(realize_key(...)).
// Exposed so server-side resolution can realize with the knowledge a
// *server* has (its own domain's cookie, an emulated device, its own load
// nonce).
std::string realize_url(const PageModel& model, const Resource& r,
                        const LoadIdentity& id);

class PageInstance {
 public:
  // Realizes `model` at `id`. When `arena` is given, every per-load table —
  // interner storage, the resource list, the url→template map — lives on it
  // and is reclaimed wholesale when the arena resets after the load (see
  // DESIGN.md §13). Without an arena the instance owns one, so standalone
  // uses (tests, accuracy set arithmetic) are unchanged.
  PageInstance(const PageModel& model, const LoadIdentity& id,
               sim::Arena* arena = nullptr);

  const PageModel& model() const { return *model_; }
  const LoadIdentity& identity() const { return id_; }

  const InstanceResource& resource(std::uint32_t id) const {
    return resources_[id];
  }
  const std::pmr::vector<InstanceResource>& resources() const {
    return resources_;
  }
  std::size_t size() const { return resources_.size(); }

  // Finds the template id behind a realized URL of *this* instance, or
  // nullopt for URLs of other instances (stale hints) / unknown URLs.
  std::optional<std::uint32_t> find_by_url(std::string_view url) const;

  // Id-keyed variant: the template id behind an interned URL, or nullopt
  // for URLs interned after build (they are foreign by construction).
  std::optional<std::uint32_t> template_of(UrlId id) const {
    if (id >= template_by_url_.size()) return std::nullopt;
    const std::uint32_t t = template_by_url_[id];
    if (t == kInvalidId) return std::nullopt;
    return t;
  }

  // The page world's URL/domain interner. Every resource URL and origin is
  // pre-interned at build, so resource i's URL has UrlId i; foreign URLs
  // (stale hints) intern lazily through this accessor. Mutable through a
  // const instance because a page world is single-threaded — see intern.h.
  Interner& interner() const { return interner_; }

  // The memory resource backing this world's per-load state (the caller's
  // arena or the interner's private fallback). The browser allocates its
  // fetch table and task state from the same resource.
  std::pmr::memory_resource* memory() const { return interner_.memory(); }

  // Set of realized URLs (for persistence / accuracy set arithmetic).
  // Copies out of the arena: the caller's strings outlive the instance.
  std::vector<std::string> url_set() const;

 private:
  const PageModel* model_;
  LoadIdentity id_;
  // Declared (and thus constructed) before the pmr members it backs.
  mutable Interner interner_;
  std::pmr::vector<InstanceResource> resources_;
  // template_by_url_[url_id] = template id, kInvalidId for non-resource ids.
  // Sized at build; later-interned URLs are foreign, template_of covers them.
  std::pmr::vector<std::uint32_t> template_by_url_;
};

// Realizes the URL + size a given (possibly stale) request would resolve to
// on the origin: any syntactically valid URL for a known resource id is
// servable, with size derived from the embedded version. Returns nullopt if
// the URL does not belong to `model`.
std::optional<std::int64_t> servable_size(const PageModel& model,
                                          std::string_view url);

}  // namespace vroom::web
