#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/accuracy.h"
#include "core/client_scheduler.h"
#include "core/hint_generator.h"
#include "core/offline_resolver.h"
#include "core/online_analyzer.h"
#include "core/vroom_provider.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "sim/random.h"
#include "web/corpus.h"
#include "web/page_generator.h"
#include "web/url.h"

namespace vroom::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() : page_(web::generate_page(42, 7, web::PageClass::News)) {
    id_.wall_time = sim::days(45);
    id_.device = web::nexus6();
    id_.user = 1;
    id_.nonce = 11;
    instance_ = std::make_unique<web::PageInstance>(page_, id_);
  }

  web::PageModel page_;
  web::LoadIdentity id_;
  std::unique_ptr<web::PageInstance> instance_;
  OfflineConfig off_;
};

TEST_F(CoreTest, OrgKnowsUserOnlyWithinOrganization) {
  EXPECT_TRUE(org_knows_user(page_, page_.first_party(), page_.first_party()));
  ASSERT_GT(page_.first_party_group().size(), 1u);
  EXPECT_TRUE(org_knows_user(page_, page_.first_party(),
                             page_.first_party_group()[1]));
  EXPECT_FALSE(org_knows_user(page_, page_.first_party(), "ads0.net"));
  EXPECT_TRUE(org_knows_user(page_, "ads0.net", "ads0.net"));
  EXPECT_FALSE(org_knows_user(page_, "ads0.net", page_.first_party()));
}

TEST_F(CoreTest, StableSetExcludesVolatileClasses) {
  OfflineResolver resolver(page_, off_);
  auto stable = resolver.stable_set(id_.wall_time, id_.device,
                                    page_.first_party(), id_.user);
  EXPECT_FALSE(stable.empty());
  for (const auto& [rid, url] : stable) {
    const web::Resource& r = page_.resource(rid);
    EXPECT_NE(r.volatility, web::Volatility::PerLoad)
        << "per-load resource survived the crawl intersection";
    EXPECT_NE(r.volatility, web::Volatility::Hourly)
        << "hour-scale resource survived a 3-hour crawl window";
    EXPECT_NE(r.volatility, web::Volatility::Personalized);
  }
  // Most stable-class resources should be present.
  int stable_class = 0, covered = 0;
  for (const auto& r : page_.resources()) {
    if (r.volatility == web::Volatility::Stable) {
      ++stable_class;
      if (stable.count(r.id)) ++covered;
    }
  }
  EXPECT_GT(covered, stable_class * 8 / 10);
}

TEST_F(CoreTest, DeviceIouHigherForSimilarDevices) {
  OfflineResolver resolver(page_, off_);
  const double similar =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::oneplus3());
  const double tablet =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::nexus10());
  const double self =
      resolver.device_iou(id_.wall_time, web::nexus6(), web::nexus6());
  EXPECT_DOUBLE_EQ(self, 1.0);
  EXPECT_GT(similar, tablet);
  EXPECT_GT(tablet, 0.3);
}

TEST_F(CoreTest, CrawlDeviceHandlingModes) {
  OfflineConfig exact = off_;
  exact.device_handling = DeviceHandling::Exact;
  EXPECT_EQ(OfflineResolver(page_, exact)
                .crawl_device(id_.wall_time, web::nexus10())
                .name,
            "Nexus10");

  OfflineConfig single = off_;
  single.device_handling = DeviceHandling::SingleClass;
  EXPECT_EQ(OfflineResolver(page_, single)
                .crawl_device(id_.wall_time, web::nexus10())
                .name,
            off_.known_devices.front().name);

  // Equivalence classes: a phone maps to a phone-class representative.
  OfflineResolver clustered(page_, off_);
  const auto& rep = clustered.crawl_device(id_.wall_time, web::oneplus3());
  EXPECT_EQ(rep.screen, 0);
}

TEST_F(CoreTest, OnlineScanMatchesMarkup) {
  OnlineScan scan = analyze_served_html(*instance_, 0);
  EXPECT_FALSE(scan.links.empty());
  EXPECT_GT(scan.cost, sim::ms(10));
  for (const auto& [rid, url] : scan.links) {
    EXPECT_EQ(instance_->resource(rid).url, url);
    EXPECT_EQ(page_.resource(rid).via, web::DiscoveryVia::HtmlTag);
    EXPECT_EQ(page_.resource(rid).parent, 0);
  }
}

TEST_F(CoreTest, HintClassificationFollowsTable1) {
  web::Resource r;
  r.type = web::ResourceType::Js;
  EXPECT_EQ(classify_hint(r), http::HintPriority::Preload);
  r.async = true;
  EXPECT_EQ(classify_hint(r), http::HintPriority::SemiImportant);
  r.type = web::ResourceType::Image;
  EXPECT_EQ(classify_hint(r), http::HintPriority::Unimportant);
  r.type = web::ResourceType::Css;
  r.async = false;
  r.in_iframe = true;  // iframe content is always low priority (footnote 4)
  EXPECT_EQ(classify_hint(r), http::HintPriority::Unimportant);
  web::Resource doc;
  doc.type = web::ResourceType::Html;
  EXPECT_EQ(classify_hint(doc), http::HintPriority::Unimportant);
}

TEST_F(CoreTest, BuildAdvicePushesHighPriorityLocalOnly) {
  std::vector<std::pair<std::uint32_t, std::string>> ordered;
  for (std::uint32_t rid : page_.hintable_descendants(0)) {
    ordered.emplace_back(rid, instance_->resource(rid).url);
  }
  AdviceBuild build =
      build_advice(*instance_, ordered, page_.first_party(),
                   /*hints_enabled=*/true, PushSelection::HighPriorityLocal);
  EXPECT_FALSE(build.hints.empty());
  for (const auto& p : build.pushes) {
    EXPECT_EQ(web::url_domain(p.url), page_.first_party());
    EXPECT_GT(p.body_bytes, 0);
  }
  // No URL appears both pushed and hinted.
  std::set<std::string> pushed;
  for (const auto& p : build.pushes) pushed.insert(p.url);
  for (const auto& h : build.hints.hints) {
    EXPECT_FALSE(pushed.count(h.url)) << h.url;
  }
}

TEST_F(CoreTest, TruncateHintsDropsLowPriorityFirst) {
  http::HintSet hs;
  for (int i = 0; i < 5; ++i) {
    hs.add("u" + std::to_string(i), http::HintPriority::Unimportant, i);
  }
  for (int i = 0; i < 3; ++i) {
    hs.add("p" + std::to_string(i), http::HintPriority::Preload, i);
  }
  hs.add("s0", http::HintPriority::SemiImportant, 0);

  http::HintSet untouched = hs;
  truncate_hints(untouched, 0);
  EXPECT_EQ(untouched.hints.size(), 9u);

  truncate_hints(hs, 5);
  ASSERT_EQ(hs.hints.size(), 5u);
  // All preloads and the semi survive; only one unimportant remains.
  int preload = 0, semi = 0, low = 0;
  for (const auto& h : hs.hints) {
    switch (h.priority) {
      case http::HintPriority::Preload: ++preload; break;
      case http::HintPriority::SemiImportant: ++semi; break;
      case http::HintPriority::Unimportant: ++low; break;
    }
  }
  EXPECT_EQ(preload, 3);
  EXPECT_EQ(semi, 1);
  EXPECT_EQ(low, 1);
  // Within a class, earlier processing order survives.
  EXPECT_EQ(hs.hints[0].url, "p0");
}

TEST_F(CoreTest, HintBudgetStillLoadsAndLimitsHeaderCount) {
  harness::RunOptions opt;
  baselines::Strategy budget = baselines::vroom();
  budget.provider.max_hints = 20;
  auto r = harness::run_page_load(page_, budget, opt, 1);
  ASSERT_TRUE(r.finished);
  int hinted = 0;
  for (const auto& t : r.timings) {
    if (t.hinted) ++hinted;
  }
  // Multiple documents each hint up to 20; still far below unlimited.
  auto full = harness::run_page_load(page_, baselines::vroom(), opt, 1);
  int full_hinted = 0;
  for (const auto& t : full.timings) {
    if (t.hinted) ++full_hinted;
  }
  EXPECT_LT(hinted, full_hinted);
}

TEST_F(CoreTest, ProviderAdvisesOnRootRequest) {
  server::ReplayStore store(*instance_);
  VroomProviderConfig cfg;
  VroomProvider provider(store, cfg);
  http::Request req;
  req.url = instance_->resource(0).url;
  req.user = id_.user;
  req.device = id_.device;
  auto advice = provider.advise(page_.first_party(), req);
  EXPECT_FALSE(advice.hints.empty());
  EXPECT_GT(advice.extra_delay, 0);  // online HTML scan costs time
  // Hints must not include iframe descendants.
  for (const auto& h : advice.hints.hints) {
    auto rid = instance_->find_by_url(h.url);
    if (rid.has_value()) {
      const web::Resource& r = page_.resource(*rid);
      if (r.in_iframe) {
        EXPECT_TRUE(r.is_iframe_doc);
      }
    }
  }
}

TEST_F(CoreTest, ProviderIgnoresNonHtmlRequests) {
  server::ReplayStore store(*instance_);
  VroomProvider provider(store, {});
  for (const auto& r : page_.resources()) {
    if (r.type != web::ResourceType::Html) {
      http::Request req;
      req.url = instance_->resource(r.id).url;
      auto advice = provider.advise(web::url_domain(req.url), req);
      EXPECT_TRUE(advice.hints.empty());
      EXPECT_TRUE(advice.pushes.empty());
      break;
    }
  }
}

TEST_F(CoreTest, ResolutionModesNested) {
  OfflineResolver resolver(page_, off_);
  auto vroom_set = resolve_candidates(*instance_, 0, page_.first_party(),
                                      id_.user, ResolutionMode::OfflinePlusOnline,
                                      resolver);
  auto offline_set = resolve_candidates(*instance_, 0, page_.first_party(),
                                        id_.user, ResolutionMode::OfflineOnly,
                                        resolver);
  // Vroom = offline + online, so it advises at least as much.
  EXPECT_GE(vroom_set.size(), offline_set.size());
  // Online overrides give exact current URLs for markup children.
  std::set<std::string> vroom_urls;
  for (auto& [rid, url] : vroom_set) vroom_urls.insert(url);
  for (const web::ScannedLink& l : web::scan_html(*instance_, 0)) {
    EXPECT_TRUE(vroom_urls.count(l.url)) << l.url;
  }
}

TEST_F(CoreTest, AccuracyVroomBeatsOfflineOnlyOnMisses) {
  auto vroom = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                ResolutionMode::OfflinePlusOnline, off_);
  auto offline = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                  ResolutionMode::OfflineOnly, off_);
  auto online = measure_accuracy(page_, id_.wall_time, id_.device, id_.user,
                                 ResolutionMode::OnlineOnly, off_);
  EXPECT_GT(vroom.predictable_count_frac, 0.5);
  EXPECT_GT(vroom.predictable_bytes_frac, 0.5);
  EXPECT_LE(vroom.false_negative_frac, offline.false_negative_frac);
  EXPECT_LE(online.false_negative_frac, vroom.false_negative_frac + 0.05);
  EXPECT_GT(online.false_positive_frac, vroom.false_positive_frac);
}

TEST_F(CoreTest, PersistenceDecaysWithGap) {
  const double hour = persistence_fraction(page_, id_.wall_time, id_.device,
                                           id_.user, sim::hours(1));
  const double day = persistence_fraction(page_, id_.wall_time, id_.device,
                                          id_.user, sim::days(1));
  const double week = persistence_fraction(page_, id_.wall_time, id_.device,
                                           id_.user, sim::days(7));
  EXPECT_GT(hour, day);
  EXPECT_GE(day, week);
  EXPECT_GT(hour, 0.4);
  EXPECT_LT(week, 0.9);
}

// End-to-end: across a handful of pages, Vroom's median beats the HTTP/2
// baseline and it finishes high-priority fetches sooner. (Per-page ties or
// small losses happen — the paper sees the same at the tail of Fig 13.)
TEST_F(CoreTest, VroomLoadFasterThanHttp2) {
  harness::RunOptions opt;
  std::vector<double> h2_plt, vr_plt;
  int hp_better = 0;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    const web::PageModel page =
        web::generate_page(42, static_cast<std::uint32_t>(20 + i),
                           web::PageClass::News);
    auto h2 = harness::run_page_load(page, baselines::http2_baseline(), opt, 1);
    auto vr = harness::run_page_load(page, baselines::vroom(), opt, 1);
    ASSERT_TRUE(h2.finished);
    ASSERT_TRUE(vr.finished);
    h2_plt.push_back(sim::to_seconds(h2.plt));
    vr_plt.push_back(sim::to_seconds(vr.plt));
    if (vr.high_prio_fetched < h2.high_prio_fetched) ++hp_better;
  }
  EXPECT_LT(harness::median(vr_plt), harness::median(h2_plt));
  EXPECT_GE(hp_better, n - 1);
}

TEST_F(CoreTest, VroomHintsAndPushesObservedClientSide) {
  harness::RunOptions opt;
  auto vr = harness::run_page_load(page_, baselines::vroom(), opt, 1);
  ASSERT_TRUE(vr.finished);
  int hinted = 0, pushed = 0;
  for (const auto& t : vr.timings) {
    if (t.hinted) ++hinted;
    if (t.pushed) ++pushed;
  }
  EXPECT_GT(hinted, 10);
  EXPECT_GT(pushed, 0);
}

// --- Keyed resolution vs the string algorithm ------------------------------

// The string-based offline resolution this library used before crawls were
// keyed, kept as an oracle: every crawl formats every slot's URL (with its
// own copy of the version/variant/user rules), crawls intersect on URL
// strings, and device IoU compares sets of URL strings. It memoizes by the
// actual serving domain, so it also checks the resolver's cookie-view
// collapse.
class StringOracle {
 public:
  StringOracle(const web::PageModel& model, OfflineConfig config)
      : model_(model), config_(std::move(config)) {}

  static std::string realize_url(const web::PageModel& model,
                                 const web::Resource& r,
                                 const web::LoadIdentity& id) {
    const auto mix = [](std::uint64_t a, std::uint64_t b) {
      return sim::derive_seed(a, "mix") ^ sim::derive_seed(b, "mix2");
    };
    std::uint64_t version;
    if (r.volatility == web::Volatility::PerLoad) {
      version = sim::derive_seed(id.nonce, "perload") % 1000000007ULL;
      version = mix(version, r.id) % 1000000007ULL;
    } else {
      version = web::rotation_version(r, id.wall_time);
    }
    std::uint64_t variant = 0;
    if (r.device_axis >= 0) {
      variant = static_cast<std::uint64_t>(id.device.axis_value(
                    static_cast<web::DeviceAxis>(r.device_axis))) + 1;
    }
    const std::uint32_t user =
        r.volatility == web::Volatility::Personalized ? id.user : 0;
    return web::make_url(r.domain, r.effective_page_id(model.page_id()), r.id,
                         version * 8 + variant, user, web::type_ext(r.type));
  }

  std::map<std::uint32_t, std::string> single_load_urls(
      sim::Time when, const web::DeviceProfile& device,
      const std::string& serving_domain, std::uint32_t user,
      std::uint64_t nonce) const {
    std::map<std::uint32_t, std::string> out;
    for (const web::Resource& r : model_.resources()) {
      web::LoadIdentity id;
      id.wall_time = when;
      id.device = device;
      id.nonce = nonce;
      id.user = org_knows_user(model_, serving_domain, r.domain) ? user : 0;
      out.emplace(r.id, realize_url(model_, r, id));
    }
    return out;
  }

  const std::map<std::uint32_t, std::string>& crawl_intersection(
      sim::Time now, const web::DeviceProfile& dev,
      const std::string& serving_domain, std::uint32_t user) const {
    const auto key = std::make_tuple(now, dev.name, serving_domain, user);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    std::map<std::uint32_t, std::string> stable;
    for (int i = 1; i <= config_.loads; ++i) {
      const sim::Time when = now - static_cast<sim::Time>(i) * config_.spacing;
      const std::uint64_t nonce = sim::derive_seed(
          static_cast<std::uint64_t>(when) ^ model_.page_id(), "offline-crawl");
      auto load = single_load_urls(when, dev, serving_domain, user, nonce);
      if (i == 1) {
        stable = std::move(load);
        continue;
      }
      for (auto it = stable.begin(); it != stable.end();) {
        auto found = load.find(it->first);
        if (found == load.end() || found->second != it->second) {
          it = stable.erase(it);
        } else {
          ++it;
        }
      }
    }
    return memo_.emplace(key, std::move(stable)).first->second;
  }

  double device_iou(sim::Time now, const web::DeviceProfile& a,
                    const web::DeviceProfile& b) const {
    const auto& sa = crawl_intersection(now, a, model_.first_party(), 0);
    const auto& sb = crawl_intersection(now, b, model_.first_party(), 0);
    std::set<std::string> ua, ub;
    for (const auto& [id, url] : sa) ua.insert(url);
    for (const auto& [id, url] : sb) ub.insert(url);
    std::size_t inter = 0;
    for (const auto& u : ua) inter += ub.count(u);
    const std::size_t uni = ua.size() + ub.size() - inter;
    return uni == 0 ? 1.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  }

  const web::DeviceProfile& crawl_device(
      sim::Time now, const web::DeviceProfile& client) const {
    switch (config_.device_handling) {
      case DeviceHandling::Exact: return client;
      case DeviceHandling::SingleClass: return config_.known_devices.front();
      case DeviceHandling::EquivalenceClasses: break;
    }
    const auto& known = config_.known_devices;
    std::vector<std::size_t> rep_of(known.size()), reps;
    for (std::size_t i = 0; i < known.size(); ++i) {
      rep_of[i] = i;
      for (std::size_t rep : reps) {
        if (device_iou(now, known[i], known[rep]) >= config_.iou_threshold) {
          rep_of[i] = rep;
          break;
        }
      }
      if (rep_of[i] == i) reps.push_back(i);
    }
    for (std::size_t i = 0; i < known.size(); ++i) {
      if (known[i].name == client.name || known[i].same_rendering(client)) {
        return known[rep_of[i]];
      }
    }
    return known.front();
  }

  const std::map<std::uint32_t, std::string>& stable_set(
      sim::Time now, const web::DeviceProfile& client,
      const std::string& serving_domain, std::uint32_t user) const {
    return crawl_intersection(now, crawl_device(now, client), serving_domain,
                              user);
  }

 private:
  const web::PageModel& model_;
  OfflineConfig config_;
  mutable std::map<
      std::tuple<sim::Time, std::string, std::string, std::uint32_t>,
      std::map<std::uint32_t, std::string>>
      memo_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Compares the keyed resolver with the string oracle on one page under one
// configuration: stable sets, crawl devices and single-load URL maps for
// every device x user x serving domain x crawl time, and every device
// pair's IoU bit for bit.
void expect_resolvers_agree(const web::PageModel& page,
                            const OfflineConfig& config) {
  const OfflineResolver keyed(page, config);
  const StringOracle oracle(page, config);
  std::string third_party = "thirdparty.example";
  for (const web::Resource& r : page.resources()) {
    if (!page.is_first_party_org(r.domain)) {
      third_party = r.domain;
      break;
    }
  }
  const std::vector<web::DeviceProfile> devices = web::all_devices();
  for (const sim::Time now :
       {sim::days(45), sim::days(45) + sim::minutes(37),
        sim::days(45) - sim::hours(6)}) {
    for (const web::DeviceProfile& a : devices) {
      for (const web::DeviceProfile& b : devices) {
        const double got = keyed.device_iou(now, a, b);
        const double want = oracle.device_iou(now, a, b);
        EXPECT_TRUE(same_bits(got, want))
            << "page " << page.page_id() << " " << a.name << "/" << b.name
            << ": " << got << " vs " << want;
      }
      const web::DeviceProfile& dev_got = keyed.crawl_device(now, a);
      const web::DeviceProfile& dev_want = oracle.crawl_device(now, a);
      EXPECT_EQ(dev_got.name, dev_want.name) << "page " << page.page_id();
      EXPECT_TRUE(dev_got.same_rendering(dev_want));
      for (const std::uint32_t user : {0u, 7u}) {
        for (const std::string& domain : {page.first_party(), third_party}) {
          EXPECT_EQ(keyed.stable_set(now, a, domain, user),
                    oracle.stable_set(now, a, domain, user))
              << "page " << page.page_id() << " " << a.name << " " << domain
              << " user " << user;
          const sim::Time when = now - sim::minutes(55);
          const std::uint64_t nonce = sim::derive_seed(
              static_cast<std::uint64_t>(when) ^ page.page_id(), "prev-load");
          EXPECT_EQ(keyed.single_load_urls(when, a, domain, user, nonce),
                    oracle.single_load_urls(when, a, domain, user, nonce))
              << "page " << page.page_id() << " " << a.name << " " << domain
              << " user " << user;
        }
      }
    }
  }
}

TEST(KeyedResolution, MatchesStringOracleOverCorpora) {
  for (const web::Corpus& corpus :
       {web::Corpus::top100(42), web::Corpus::news_sports(42)}) {
    for (const web::PageModel& page : corpus.pages()) {
      expect_resolvers_agree(page, OfflineConfig{});
    }
  }
}

TEST(KeyedResolution, MatchesStringOracleInEveryDeviceHandling) {
  const web::Corpus corpus = web::Corpus::news_sports(42);
  for (const DeviceHandling handling :
       {DeviceHandling::Exact, DeviceHandling::EquivalenceClasses,
        DeviceHandling::SingleClass}) {
    OfflineConfig config;
    config.device_handling = handling;
    for (std::size_t i = 0; i < 10; ++i) {
      expect_resolvers_agree(corpus.page(i), config);
    }
  }
}

}  // namespace
}  // namespace vroom::core
