// Offline server-side dependency resolution (§4.1.2).
//
// A VROOM-compliant origin periodically loads each page it serves (hourly in
// the paper's implementation) and, when a client requests the page, treats
// the URLs present in *all* recent loads as the stable set worth advising.
// The intersection automatically filters per-load ad churn and fast-rotating
// personalized content. Device-type customization is handled with
// equivalence classes so the server need not crawl with every handset model.
//
// Resolution is pure: the stable set is a function of (crawl time, crawl
// device, the serving organization's cookie view, user). A resolver
// memoizes each distinct combination, so the many advise() calls of one
// page load — per HTML document, per serving domain — recompute nothing.
// Crawls are compared on realized keys (web::RealizedKey), never on URL
// strings: for one slot a URL is a function of its key and nothing else
// varies, so equal keys mean equal URLs and vice versa. Strings are made
// only for the stable sets and single loads callers ask for.
// Mutable caches are safe because a resolver lives inside one page world,
// which is single-threaded (each fleet worker builds a private world).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/time.h"
#include "web/device.h"
#include "web/page_instance.h"
#include "web/page_model.h"

namespace vroom::core {

enum class DeviceHandling : std::uint8_t {
  Exact,              // crawl with the client's exact device (upper bound)
  EquivalenceClasses, // cluster known devices by stable-set IoU (the paper)
  SingleClass,        // one crawl device for everyone (ablation)
};

struct OfflineConfig {
  int loads = 3;                        // recent crawls intersected
  sim::Time spacing = sim::hours(1);    // crawl period
  DeviceHandling device_handling = DeviceHandling::EquivalenceClasses;
  double iou_threshold = 0.80;          // cluster admission similarity
  std::vector<web::DeviceProfile> known_devices = web::all_devices();
};

// Whether `serving_domain` holds the user's cookie state for resources of
// `resource_domain` (same organization).
bool org_knows_user(const web::PageModel& model,
                    const std::string& serving_domain,
                    const std::string& resource_domain);

class OfflineResolver {
 public:
  OfflineResolver(const web::PageModel& model, OfflineConfig config);

  // Stable set as of `now`, from the perspective of `serving_domain` holding
  // `user`'s cookie for its own organization only. Keys are template ids;
  // values the URL consistently observed across the recent crawls. The
  // returned reference points into the resolver's cache and stays valid for
  // the resolver's lifetime.
  const std::map<std::uint32_t, std::string>& stable_set(
      sim::Time now, const web::DeviceProfile& client_device,
      const std::string& serving_domain, std::uint32_t user) const;

  // Crawl device chosen for a client device under the configured handling.
  const web::DeviceProfile& crawl_device(
      sim::Time now, const web::DeviceProfile& client_device) const;

  // Stable-set intersection-over-union between two devices (Figure 9).
  double device_iou(sim::Time now, const web::DeviceProfile& a,
                    const web::DeviceProfile& b) const;

  // All URLs observed in one crawl at `when` (the Figure 17 baseline:
  // "dependencies = everything seen in a prior load").
  std::map<std::uint32_t, std::string> single_load_urls(
      sim::Time when, const web::DeviceProfile& device,
      const std::string& serving_domain, std::uint32_t user,
      std::uint64_t nonce) const;

  const OfflineConfig& config() const { return config_; }

 private:
  // A keyed stable set: slot i's realized key where every recent crawl
  // agreed on it, nullopt where the crawls disagreed. Indexed by template
  // id. The URL map is formatted from the surviving slots on the first
  // stable_set() call for this memo key; device_iou never builds it.
  struct KeyedStable {
    std::vector<std::optional<web::RealizedKey>> keys;
    std::size_t present = 0;
    std::optional<std::map<std::uint32_t, std::string>> urls;
  };

  KeyedStable& crawl_intersection(sim::Time now,
                                  const web::DeviceProfile& crawl_dev,
                                  const std::string& serving_domain,
                                  std::uint32_t user) const;

  // The user each slot's crawl presents, indexed by template id: `user`
  // for domains the serving organization controls, 0 (generic) elsewhere.
  std::vector<std::uint32_t> crawl_users(const std::string& serving_domain,
                                         std::uint32_t user) const;

  // Realized keys of one crawl at `when`, indexed by template id.
  std::vector<web::RealizedKey> crawl_keys(
      sim::Time when, const web::DeviceProfile& device,
      const std::vector<std::uint32_t>& users, std::uint64_t nonce) const;

  // Collapses serving_domain to what the crawl outcome actually depends on:
  // with no user cookie the domain is irrelevant; every first-party-org
  // domain shares the same cookie view; third parties see only themselves.
  std::string cookie_view_sig(const std::string& serving_domain,
                              std::uint32_t user) const;

  const web::PageModel* model_;
  OfflineConfig config_;

  // Memo keys: (now, device identity, cookie view, user). Device identity is
  // name + rendering axes — two profiles that differ in either never alias.
  using DevKey = std::tuple<std::string, int, int, int>;
  static DevKey dev_key(const web::DeviceProfile& d) {
    return {d.name, d.screen, d.dpi, d.width};
  }
  using IntersectKey = std::tuple<sim::Time, DevKey, std::string, std::uint32_t>;
  mutable std::map<IntersectKey, KeyedStable> intersect_cache_;
  mutable std::map<std::tuple<sim::Time, DevKey, DevKey>, double> iou_cache_;
  // Greedy clustering outcome per crawl time: index of each known device's
  // class representative.
  mutable std::map<sim::Time, std::vector<std::size_t>> cluster_cache_;
};

}  // namespace vroom::core
