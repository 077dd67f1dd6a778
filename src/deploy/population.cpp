#include "deploy/population.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "sim/random.h"

namespace vroom::deploy {

namespace {

// Zipf-style sampler over n ranks with exponent s: weight(r) = 1/(r+1)^s.
// Rng::weighted is O(n) per draw; at population scale (10^4 users, 10^5
// arrivals) that is quadratic, so precompute cumulative weights once and
// binary-search per draw.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) {
    const std::vector<double> w = zipf_weights(n, s);
    cum_.reserve(w.size());
    double total = 0.0;
    for (const double v : w) {
      total += v;
      cum_.push_back(total);
    }
  }

  int draw(sim::Rng& rng) const {
    const double u = rng.uniform(0.0, cum_.back());
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
    return static_cast<int>(it - cum_.begin());
  }

 private:
  std::vector<double> cum_;
};

}  // namespace

std::vector<double> zipf_weights(int n, double s) {
  std::vector<double> w(static_cast<std::size_t>(std::max(0, n)));
  for (int r = 0; r < n; ++r) {
    w[static_cast<std::size_t>(r)] =
        1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  return w;
}

std::vector<DeviceShare> default_device_mix() {
  return {
      {web::nexus6(), 0.45},
      {web::nexus5(), 0.30},
      {web::nexus10(), 0.25},
  };
}

std::vector<double> default_diurnal_profile() {
  // Hand-shaped weekday curve: overnight trough (hours 1-5), morning ramp,
  // midday plateau, evening peak around hour 20. Mean is exactly 1.0 so the
  // configured mean arrival rate is the true time average.
  std::vector<double> p = {
      0.45, 0.30, 0.22, 0.18, 0.18, 0.25,  // 00-05
      0.45, 0.75, 1.05, 1.20, 1.25, 1.30,  // 06-11
      1.35, 1.30, 1.25, 1.20, 1.25, 1.35,  // 12-17
      1.55, 1.75, 1.85, 1.65, 1.20, 0.72,  // 18-23
  };
  double sum = 0.0;
  for (double v : p) sum += v;
  for (double& v : p) v *= static_cast<double>(p.size()) / sum;
  return p;
}

namespace {

// The hour-of-day lookup behind diurnal_multiplier, on a resolved profile.
double multiplier_at(const std::vector<double>& profile, sim::Time t) {
  if (profile.empty()) return 1.0;
  const auto hour = static_cast<std::size_t>((t / sim::hours(1)) %
                                             static_cast<sim::Time>(
                                                 profile.size()));
  return profile[hour];
}

}  // namespace

double diurnal_multiplier(const PopulationConfig& cfg, sim::Time t) {
  return multiplier_at(
      cfg.diurnal.empty() ? default_diurnal_profile() : cfg.diurnal, t);
}

std::vector<Arrival> build_population(int num_pages,
                                      const PopulationConfig& cfg,
                                      std::uint64_t seed,
                                      int max_arrivals) {
  std::vector<Arrival> arrivals;
  if (num_pages <= 0 || cfg.users <= 0 || cfg.window <= 0 ||
      cfg.mean_arrivals_per_sec <= 0.0) {
    return arrivals;
  }

  // Resolved once per stream: the thinning loop reads it per candidate.
  const std::vector<double> profile =
      cfg.diurnal.empty() ? default_diurnal_profile() : cfg.diurnal;
  double max_mult = 1.0;
  for (double v : profile) max_mult = std::max(max_mult, v);

  const std::vector<DeviceShare> mix =
      cfg.device_mix.empty() ? default_device_mix() : cfg.device_mix;
  std::vector<double> mix_weights;
  mix_weights.reserve(mix.size());
  for (const DeviceShare& share : mix) mix_weights.push_back(share.weight);

  // Independent streams per concern, so e.g. changing how devices are
  // assigned never shifts which users arrive when.
  const std::uint64_t root = sim::derive_seed(seed, "deploy:population");
  sim::Rng arrival_rng(root, "arrivals");
  sim::Rng who_rng(root, "users");
  sim::Rng page_rng(root, "pages");

  const ZipfSampler user_sampler(cfg.users, cfg.user_skew);
  const ZipfSampler page_sampler(num_pages, cfg.page_skew);

  // Per-user traits are a pure function of (root, user): assigned lazily on
  // first arrival, identical regardless of arrival order or truncation.
  struct UserTraits {
    std::uint8_t device;
    bool cookie;
  };
  std::unordered_map<std::uint32_t, UserTraits> traits;
  const auto traits_for = [&](std::uint32_t user) {
    auto it = traits.find(user);
    if (it != traits.end()) return it->second;
    sim::Rng r(sim::derive_seed(root, static_cast<std::uint64_t>(user)));
    UserTraits t;
    t.device = static_cast<std::uint8_t>(r.weighted(mix_weights));
    t.cookie = r.chance(cfg.cookie_frac);
    traits.emplace(user, t);
    return t;
  };

  // Warm-cache bookkeeping: last visit time per (user, page).
  std::unordered_map<std::uint64_t, sim::Time> last_visit;

  // Thinning (Lewis-Shedler): candidates from a homogeneous process at the
  // peak rate, accepted with probability rate(t)/peak.
  const double peak_rate = cfg.mean_arrivals_per_sec * max_mult;
  sim::Time t = 0;
  while (true) {
    t += sim::from_seconds(arrival_rng.exponential(1.0 / peak_rate));
    if (t >= cfg.window) break;
    if (!arrival_rng.chance(multiplier_at(profile, t) / max_mult)) continue;

    Arrival a;
    a.at = t;
    a.user = static_cast<std::uint32_t>(user_sampler.draw(who_rng));
    a.page = static_cast<std::uint16_t>(page_sampler.draw(page_rng));
    const UserTraits ut = traits_for(a.user);
    a.device = ut.device;
    a.cookie = ut.cookie;

    const std::uint64_t visit_key =
        (static_cast<std::uint64_t>(a.user) << 16) | a.page;
    const auto seen = last_visit.find(visit_key);
    a.warm = seen != last_visit.end() && t - seen->second <= cfg.warm_ttl;
    last_visit[visit_key] = t;

    arrivals.push_back(a);
    if (max_arrivals > 0 &&
        arrivals.size() >= static_cast<std::size_t>(max_arrivals)) {
      break;
    }
  }
  return arrivals;
}

}  // namespace vroom::deploy
