#include "web/page_instance.h"

#include <cassert>

#include "sim/random.h"

namespace vroom::web {
namespace {

// Low bits of the realized version encode the device variant so that the
// same slot yields distinct URLs per device bucket.
constexpr std::uint64_t kDeviceVariantSpace = 8;

// PerLoad versions are folded below this prime.
constexpr std::uint64_t kVersionModulus = 1000000007ULL;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return sim::derive_seed(a, "mix") ^ sim::derive_seed(b, "mix2");
}

}  // namespace

std::uint64_t rotation_version(const Resource& r, sim::Time wall_time) {
  switch (r.volatility) {
    case Volatility::Stable:
    case Volatility::Daily:
    case Volatility::Hourly:
    case Volatility::Personalized: {
      assert(r.rotation_period > 0);
      const sim::Time t = wall_time + r.rotation_phase;
      return static_cast<std::uint64_t>(t / r.rotation_period);
    }
    case Volatility::PerLoad:
      return 0;  // caller folds the nonce in
  }
  return 0;
}

std::int64_t realized_size(const Resource& r, std::uint64_t version) {
  // +/-15 % deterministic jitter so rotated content has a slightly different
  // weight, as real story images do.
  const std::uint64_t h = mix(version, r.id);
  const double jitter = 0.85 + 0.30 * (static_cast<double>(h % 10007) / 10007.0);
  std::int64_t s = static_cast<std::int64_t>(r.base_size * jitter);
  return s < 64 ? 64 : s;
}

KeyRealizer::KeyRealizer(const LoadIdentity& id)
    : wall_time_(id.wall_time),
      // Unpredictable across back-to-back loads: PerLoad versions derive
      // from the load nonce, so equal nonces (the same load) agree and
      // different nonces differ.
      perload_seed_(sim::derive_seed(id.nonce, "perload") % kVersionModulus),
      device_(id.device),
      user_(id.user) {}

RealizedKey KeyRealizer::operator()(const Resource& r,
                                    std::uint32_t user) const {
  std::uint64_t version;
  if (r.volatility == Volatility::PerLoad) {
    version = mix(perload_seed_, r.id) % kVersionModulus;
  } else {
    version = rotation_version(r, wall_time_);
  }
  std::uint64_t variant = 0;
  if (r.device_axis >= 0) {
    variant = static_cast<std::uint64_t>(device_.axis_value(
                  static_cast<DeviceAxis>(r.device_axis))) + 1;
  }
  RealizedKey key;
  key.full_version = version * kDeviceVariantSpace + variant;
  key.user_part = r.volatility == Volatility::Personalized ? user : 0;
  return key;
}

RealizedKey realize_key(const Resource& r, const LoadIdentity& id) {
  return KeyRealizer(id)(r);
}

std::string format_url(const PageModel& model, const Resource& r,
                       const RealizedKey& key) {
  return make_url(r.domain, r.effective_page_id(model.page_id()), r.id,
                  key.full_version, key.user_part, type_ext(r.type));
}

void append_url(std::string& out, const PageModel& model, const Resource& r,
                const RealizedKey& key) {
  append_url(out, r.domain, r.effective_page_id(model.page_id()), r.id,
             key.full_version, key.user_part, type_ext(r.type));
}

std::string realize_url(const PageModel& model, const Resource& r,
                        const LoadIdentity& id) {
  return format_url(model, r, realize_key(r, id));
}

PageInstance::PageInstance(const PageModel& model, const LoadIdentity& id,
                           sim::Arena* arena)
    : model_(&model),
      id_(id),
      interner_(arena),
      resources_(interner_.memory()),
      template_by_url_(interner_.memory()) {
  resources_.reserve(model.size());
  template_by_url_.reserve(model.size());
  const KeyRealizer realize(id);
  std::string url;  // one buffer for every slot; the interner copies it
  for (const Resource& r : model.resources()) {
    const RealizedKey key = realize(r);
    InstanceResource ir;
    ir.template_id = r.id;
    url.clear();
    append_url(url, model, r, key);
    ir.url_id = interner_.url_id(url);
    // The interner's arena copy is the one stored string per URL; the
    // instance keeps a view of it.
    ir.url = interner_.url(ir.url_id);
    ir.size = realized_size(r, key.full_version);
    // Realized URLs are distinct per slot, so pre-interning in build order
    // assigns resource i the UrlId i.
    assert(ir.url_id == template_by_url_.size());
    template_by_url_.push_back(r.id);
    resources_.push_back(ir);
  }
}

std::optional<std::uint32_t> PageInstance::find_by_url(
    std::string_view url) const {
  const UrlId id = interner_.find_url(url);
  if (id == kInvalidId) return std::nullopt;
  return template_of(id);
}

std::vector<std::string> PageInstance::url_set() const {
  std::vector<std::string> out;
  out.reserve(resources_.size());
  for (const auto& r : resources_) out.emplace_back(r.url);
  return out;
}

std::optional<std::int64_t> servable_size(const PageModel& model,
                                          std::string_view url) {
  auto parsed = parse_url(url);
  if (!parsed) return std::nullopt;
  if (parsed->resource_id >= model.size()) return std::nullopt;
  const Resource& r = model.resource(parsed->resource_id);
  if (parsed->page_id != r.effective_page_id(model.page_id())) {
    return std::nullopt;
  }
  if (r.domain != parsed->domain) return std::nullopt;
  return realized_size(r, parsed->version);
}

}  // namespace vroom::web
