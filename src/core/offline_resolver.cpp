#include "core/offline_resolver.h"

#include <algorithm>
#include <utility>

#include "sim/random.h"

namespace vroom::core {

bool org_knows_user(const web::PageModel& model,
                    const std::string& serving_domain,
                    const std::string& resource_domain) {
  if (serving_domain == resource_domain) return true;
  return model.is_first_party_org(serving_domain) &&
         model.is_first_party_org(resource_domain);
}

OfflineResolver::OfflineResolver(const web::PageModel& model,
                                 OfflineConfig config)
    : model_(&model), config_(std::move(config)) {}

std::string OfflineResolver::cookie_view_sig(const std::string& serving_domain,
                                             std::uint32_t user) const {
  if (user == 0) return std::string();  // cookieless: domain-independent
  if (model_->is_first_party_org(serving_domain)) return std::string("\x01fp");
  return serving_domain;
}

std::vector<std::uint32_t> OfflineResolver::crawl_users(
    const std::string& serving_domain, std::uint32_t user) const {
  std::vector<std::uint32_t> users(model_->size(), 0);
  if (user == 0) return users;
  for (const web::Resource& r : model_->resources()) {
    // The crawler carries the client's cookie only for domains the serving
    // organization controls; everything else loads as a generic user.
    if (org_knows_user(*model_, serving_domain, r.domain)) users[r.id] = user;
  }
  return users;
}

std::vector<web::RealizedKey> OfflineResolver::crawl_keys(
    sim::Time when, const web::DeviceProfile& device,
    const std::vector<std::uint32_t>& users, std::uint64_t nonce) const {
  web::LoadIdentity id;
  id.wall_time = when;
  id.device = device;
  id.nonce = nonce;
  const web::KeyRealizer realize(id);
  std::vector<web::RealizedKey> keys;
  keys.reserve(model_->size());
  for (const web::Resource& r : model_->resources()) {
    keys.push_back(realize(r, users[r.id]));
  }
  return keys;
}

std::map<std::uint32_t, std::string> OfflineResolver::single_load_urls(
    sim::Time when, const web::DeviceProfile& device,
    const std::string& serving_domain, std::uint32_t user,
    std::uint64_t nonce) const {
  const std::vector<web::RealizedKey> keys =
      crawl_keys(when, device, crawl_users(serving_domain, user), nonce);
  std::map<std::uint32_t, std::string> out;
  for (const web::Resource& r : model_->resources()) {
    out.emplace_hint(out.end(), r.id,
                     web::format_url(*model_, r, keys[r.id]));
  }
  return out;
}

OfflineResolver::KeyedStable& OfflineResolver::crawl_intersection(
    sim::Time now, const web::DeviceProfile& crawl_dev,
    const std::string& serving_domain, std::uint32_t user) const {
  const IntersectKey key{now, dev_key(crawl_dev),
                         cookie_view_sig(serving_domain, user), user};
  auto cached = intersect_cache_.find(key);
  if (cached != intersect_cache_.end()) return cached->second;

  const std::vector<std::uint32_t> users = crawl_users(serving_domain, user);
  KeyedStable stable;
  stable.keys.resize(model_->size());
  for (int i = 1; i <= config_.loads; ++i) {
    const sim::Time when = now - static_cast<sim::Time>(i) * config_.spacing;
    const std::uint64_t nonce =
        sim::derive_seed(static_cast<std::uint64_t>(when) ^ model_->page_id(),
                         "offline-crawl");
    const auto load = crawl_keys(when, crawl_dev, users, nonce);
    if (i == 1) {
      stable.keys.assign(load.begin(), load.end());
      continue;
    }
    // A slot survives only while every crawl realized the same key.
    for (std::size_t id = 0; id < load.size(); ++id) {
      if (stable.keys[id] && *stable.keys[id] != load[id]) {
        stable.keys[id].reset();
      }
    }
  }
  stable.present = static_cast<std::size_t>(
      std::count_if(stable.keys.begin(), stable.keys.end(),
                    [](const auto& k) { return k.has_value(); }));
  return intersect_cache_.emplace(key, std::move(stable)).first->second;
}

double OfflineResolver::device_iou(sim::Time now, const web::DeviceProfile& a,
                                   const web::DeviceProfile& b) const {
  const auto key = std::make_tuple(now, dev_key(a), dev_key(b));
  auto cached = iou_cache_.find(key);
  if (cached != iou_cache_.end()) return cached->second;

  // Realized URLs embed the slot id, so two stable sets share a URL only
  // where they keep the same slot at the same key.
  const KeyedStable& sa = crawl_intersection(now, a, model_->first_party(), 0);
  const KeyedStable& sb = crawl_intersection(now, b, model_->first_party(), 0);
  std::size_t inter = 0;
  for (std::size_t id = 0; id < sa.keys.size(); ++id) {
    if (sa.keys[id] && sa.keys[id] == sb.keys[id]) ++inter;
  }
  const std::size_t uni = sa.present + sb.present - inter;
  const double iou =
      uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
  iou_cache_.emplace(key, iou);
  return iou;
}

const web::DeviceProfile& OfflineResolver::crawl_device(
    sim::Time now, const web::DeviceProfile& client_device) const {
  switch (config_.device_handling) {
    case DeviceHandling::Exact:
      return client_device;
    case DeviceHandling::SingleClass:
      return config_.known_devices.front();
    case DeviceHandling::EquivalenceClasses:
      break;
  }
  auto cached = cluster_cache_.find(now);
  if (cached == cluster_cache_.end()) {
    // Greedy clustering: walk known devices in order; a device joins the
    // first existing class whose representative's stable set is similar
    // enough, otherwise founds a new class.
    std::vector<std::size_t> rep_of(config_.known_devices.size());
    std::vector<std::size_t> reps;
    for (std::size_t i = 0; i < config_.known_devices.size(); ++i) {
      bool placed = false;
      for (std::size_t rep : reps) {
        if (device_iou(now, config_.known_devices[i],
                       config_.known_devices[rep]) >= config_.iou_threshold) {
          rep_of[i] = rep;
          placed = true;
          break;
        }
      }
      if (!placed) {
        reps.push_back(i);
        rep_of[i] = i;
      }
    }
    cached = cluster_cache_.emplace(now, std::move(rep_of)).first;
  }
  const std::vector<std::size_t>& rep_of = cached->second;
  // Map the client's device to its class representative (by name, falling
  // back to rendering-equivalent axes for unknown handsets).
  for (std::size_t i = 0; i < config_.known_devices.size(); ++i) {
    if (config_.known_devices[i].name == client_device.name ||
        config_.known_devices[i].same_rendering(client_device)) {
      return config_.known_devices[rep_of[i]];
    }
  }
  return config_.known_devices.front();
}

const std::map<std::uint32_t, std::string>& OfflineResolver::stable_set(
    sim::Time now, const web::DeviceProfile& client_device,
    const std::string& serving_domain, std::uint32_t user) const {
  const web::DeviceProfile& dev = crawl_device(now, client_device);
  KeyedStable& stable = crawl_intersection(now, dev, serving_domain, user);
  if (!stable.urls) {
    std::map<std::uint32_t, std::string> urls;
    for (const web::Resource& r : model_->resources()) {
      if (const auto& k = stable.keys[r.id]) {
        urls.emplace_hint(urls.end(), r.id, web::format_url(*model_, r, *k));
      }
    }
    stable.urls = std::move(urls);
  }
  return *stable.urls;
}

}  // namespace vroom::core
