// Deployment-scale simulator (src/deploy/): the population's arrival
// process must match its configured rate and diurnal shape, be bit-identical
// for a given seed at any VROOM_JOBS, and the macro scenario must show real
// per-origin contention — p99 PLT degrading as offered load crosses link
// capacity.
#include "deploy/scenario.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/vroom_provider.h"
#include "deploy/front_end.h"
#include "deploy/population.h"
#include "http/message.h"
#include "obs/metrics.h"
#include "scoped_env.h"
#include "server/replay_store.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "web/corpus.h"
#include "web/page_instance.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

deploy::PopulationConfig small_population() {
  deploy::PopulationConfig cfg;
  cfg.users = 500;
  cfg.window = sim::hours(24);
  cfg.mean_arrivals_per_sec = 0.5;
  return cfg;
}

TEST(Population, MeanArrivalRateMatchesConfiguredWithinTolerance) {
  const deploy::PopulationConfig cfg = small_population();
  const auto arrivals = deploy::build_population(8, cfg, 1234);
  const double expected =
      cfg.mean_arrivals_per_sec * sim::to_seconds(cfg.window);
  const auto got = static_cast<double>(arrivals.size());
  // One day at 0.5/s is ~43k draws; 5% covers Poisson noise comfortably.
  EXPECT_NEAR(got / expected, 1.0, 0.05)
      << got << " arrivals vs " << expected << " expected";
}

TEST(Population, DiurnalShapeShowsUpInHourlyCounts) {
  deploy::PopulationConfig cfg = small_population();
  cfg.mean_arrivals_per_sec = 1.0;
  const auto arrivals = deploy::build_population(8, cfg, 99);
  std::vector<int> per_hour(24, 0);
  for (const deploy::Arrival& a : arrivals) {
    ++per_hour[static_cast<std::size_t>(a.at / sim::hours(1))];
  }
  const std::vector<double> profile = deploy::default_diurnal_profile();
  // The default profile's evening peak (hour 20) carries > 4x the traffic
  // of the overnight trough (hour 3); even one sampled day separates them.
  EXPECT_GT(per_hour[20], 2 * per_hour[3])
      << "peak " << per_hour[20] << " vs trough " << per_hour[3];
  EXPECT_GT(profile[20], 4 * profile[3]);  // the shape the test leans on
}

TEST(Population, ArrivalsAreSortedCookiesAndDevicesConsistentPerUser) {
  const auto arrivals = deploy::build_population(6, small_population(), 7);
  ASSERT_FALSE(arrivals.empty());
  std::map<std::uint32_t, std::pair<std::uint8_t, bool>> traits;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].at, arrivals[i].at);
  }
  for (const deploy::Arrival& a : arrivals) {
    const auto it = traits.find(a.user);
    if (it == traits.end()) {
      traits.emplace(a.user, std::make_pair(a.device, a.cookie));
    } else {
      EXPECT_EQ(it->second.first, a.device) << "user switched device class";
      EXPECT_EQ(it->second.second, a.cookie) << "user toggled cookie";
    }
  }
}

TEST(Population, WarmFlagsFollowRevisitsWithinTtl) {
  deploy::PopulationConfig cfg = small_population();
  cfg.users = 3;    // few users, few pages: revisits guaranteed
  cfg.warm_ttl = sim::hours(12);
  const auto arrivals = deploy::build_population(2, cfg, 11);
  std::map<std::uint64_t, sim::Time> last;
  int warm = 0;
  for (const deploy::Arrival& a : arrivals) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a.user) << 16) | a.page;
    const auto it = last.find(key);
    const bool expect_warm =
        it != last.end() && a.at - it->second <= cfg.warm_ttl;
    EXPECT_EQ(a.warm, expect_warm);
    warm += a.warm ? 1 : 0;
    last[key] = a.at;
  }
  EXPECT_GT(warm, 0) << "test setup produced no revisits";
}

TEST(Population, TruncationIsAPrefixOfTheFullStream) {
  const deploy::PopulationConfig cfg = small_population();
  const auto full = deploy::build_population(8, cfg, 5);
  const auto capped = deploy::build_population(8, cfg, 5, 100);
  ASSERT_EQ(capped.size(), 100u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_TRUE(capped[i] == full[i]) << "diverged at arrival " << i;
  }
}

TEST(Population, BitIdenticalDrawsAcrossJobCounts) {
  // The population generator is serial, but the contract is end-to-end:
  // the same seed must produce the same stream whatever VROOM_JOBS says.
  std::vector<std::vector<deploy::Arrival>> streams;
  for (const char* jobs : {"1", "2", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    streams.push_back(deploy::build_population(8, small_population(), 42));
  }
  ASSERT_FALSE(streams[0].empty());
  for (std::size_t j = 1; j < streams.size(); ++j) {
    ASSERT_EQ(streams[0].size(), streams[j].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      ASSERT_TRUE(streams[0][i] == streams[j][i])
          << "stream diverged at arrival " << i;
    }
  }
}

// Digest of an arrival stream over every field of every arrival.
std::uint64_t stream_digest(const std::vector<deploy::Arrival>& arrivals) {
  std::uint64_t h = sim::hash64("deploy:population-golden");
  for (const deploy::Arrival& a : arrivals) {
    h = sim::derive_seed(h, static_cast<std::uint64_t>(a.at));
    h = sim::derive_seed(h, (static_cast<std::uint64_t>(a.user) << 32) |
                                (static_cast<std::uint64_t>(a.page) << 16) |
                                (static_cast<std::uint64_t>(a.device) << 8) |
                                (a.cookie ? 2u : 0u) | (a.warm ? 1u : 0u));
  }
  return h;
}

// The default population at 0.4 views/s (deploy_day's top level) over 25
// pages, pinned byte for byte. Recorded before the thinning loop stopped
// rebuilding the diurnal profile per candidate, so it shows that change
// left the stream untouched. Replacing sim::Rng's draws or the per-user
// engine (ROADMAP item 2) moves both figures: re-record them there.
TEST(Population, DefaultStreamMatchesGoldenDigest) {
  deploy::PopulationConfig cfg;
  cfg.mean_arrivals_per_sec = 0.4;
  const auto arrivals = deploy::build_population(25, cfg, 42);
  EXPECT_EQ(arrivals.size(), 34892u);
  EXPECT_EQ(sim::hex64(stream_digest(arrivals)), "d9d7306aec20815d");
}

TEST(Population, DiurnalMultiplierCyclesTheResolvedProfile) {
  deploy::PopulationConfig cfg;
  const std::vector<double> profile = deploy::default_diurnal_profile();
  EXPECT_EQ(deploy::diurnal_multiplier(cfg, sim::hours(20) + 1), profile[20]);
  EXPECT_EQ(deploy::diurnal_multiplier(cfg, sim::hours(27)), profile[3]);
  cfg.diurnal = {2.0, 0.5};
  EXPECT_EQ(deploy::diurnal_multiplier(cfg, sim::hours(3)), 0.5);
}

// A snapshot-hint table over `devices` with every row resolved.
deploy::SnapshotHints built_table(const web::Corpus& corpus,
                                  const deploy::FrontEndConfig& cfg,
                                  std::vector<web::DeviceProfile> devices,
                                  sim::Time window = sim::hours(24)) {
  deploy::SnapshotHints hints(corpus, cfg, 42, std::move(devices), window);
  for (int p = 0; p < static_cast<int>(corpus.size()); ++p) {
    hints.build_row(p);
  }
  return hints;
}

TEST(FrontEnd, CachesHitsAndTracksStaleness) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  // Default deadline (250ms) is meant to be tight against real pages'
  // hint counts; this test is about cache mechanics, so give generation
  // room to finish synchronously.
  cfg.serve_deadline = sim::seconds(5);
  const deploy::SnapshotHints hints =
      built_table(corpus, cfg, {web::nexus6(), web::nexus10()});
  constexpr std::size_t kPhone = 0, kTablet = 1;
  deploy::FrontEnd fe(hints);

  const auto first = fe.serve(sim::minutes(1), 0, kPhone);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.source, deploy::HintSource::Fresh);
  EXPECT_GT(first.hints, 0);
  EXPECT_GE(first.staleness, 0);

  const auto second = fe.serve(sim::minutes(2), 0, kPhone);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.source, deploy::HintSource::Cached);
  EXPECT_EQ(second.queue_wait, 0);
  EXPECT_EQ(second.hints, first.hints);

  // Different rendering class = different cache key.
  const auto tablet = fe.serve(sim::minutes(3), 0, kTablet);
  EXPECT_FALSE(tablet.cache_hit);

  // After a recrawl the cached entry is stale: served immediately (SWR),
  // flagged, and refreshed for the next serve.
  const sim::Time later = sim::minutes(2) + hints.period();
  const auto stale = fe.serve(later, 0, kPhone);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_EQ(stale.source, deploy::HintSource::Stale);
  EXPECT_GT(stale.staleness, cfg.recrawl_period / 2);
  const auto refreshed = fe.serve(later + sim::minutes(1), 0, kPhone);
  EXPECT_EQ(refreshed.source, deploy::HintSource::Cached);
  EXPECT_LT(refreshed.staleness, stale.staleness);

  EXPECT_EQ(fe.stats().serves, 5);
  EXPECT_EQ(fe.stats().stale_serves, 1);
  EXPECT_GT(fe.stats().hit_ratio(), 0.5);
}

TEST(FrontEnd, SaturatedGenerationQueueServesHintless) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  cfg.gen_workers = 1;
  cfg.gen_base_cost = sim::seconds(5);
  cfg.serve_deadline = sim::ms(100);
  const deploy::SnapshotHints hints = built_table(corpus, cfg, {web::nexus6()});
  deploy::FrontEnd fe(hints);

  // First miss generates (and blows the deadline synchronously: cost alone
  // exceeds it), later misses find the worker busy and give up queueing.
  const auto a = fe.serve(0, 0, 0);
  EXPECT_EQ(a.source, deploy::HintSource::None);
  const auto b = fe.serve(sim::ms(1), 1, 0);
  EXPECT_EQ(b.source, deploy::HintSource::None);
  EXPECT_EQ(b.queue_wait, 0) << "hintless serves must not stall the page";
  EXPECT_EQ(fe.stats().hintless_serves, 2);
}

TEST(FrontEnd, CrawlScheduleIsPeriodicAndThroughputBound) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  cfg.recrawl_period = sim::minutes(10);
  cfg.crawl_cost = sim::minutes(30);  // 4 pages x 30min > 10min target
  const deploy::SnapshotHints hints = built_table(corpus, cfg, {web::nexus6()});
  EXPECT_EQ(hints.period(), 4 * sim::minutes(30));
  EXPECT_EQ(deploy::effective_recrawl_period(corpus.size(), cfg),
            hints.period());
  const sim::Time t = sim::hours(5);
  for (int p = 0; p < 4; ++p) {
    const sim::Time at = hints.last_crawl(t, p);
    EXPECT_LE(at, t);
    EXPECT_GT(at, t - hints.period() - sim::minutes(1));
    EXPECT_EQ(hints.last_crawl(at, p), at) << "crawl time not a fixed point";
  }
}

// The model-level counts of a scripted serve sequence: bursts of 20 views
// every 20 minutes over ~10 hours, cycling pages and device classes, with a
// small cache and one generation worker so misses, hits, stale serves and
// hintless serves all occur. The figures were recorded from the per-miss
// generation path the snapshot table replaced; the table must reproduce
// every one.
TEST(FrontEnd, ScriptedServeSequencePinsModelCounts) {
  const web::Corpus corpus = web::Corpus::smoke(42, 4);
  deploy::FrontEndConfig cfg;
  cfg.hint_cache_entries = 8;
  cfg.gen_workers = 1;
  const deploy::SnapshotHints hints = built_table(
      corpus, cfg, {web::nexus6(), web::nexus5(), web::nexus10()});
  deploy::FrontEnd fe(hints);
  std::int64_t hint_sum = 0;
  for (int i = 0; i < 600; ++i) {
    const sim::Time now =
        (i / 20) * sim::minutes(20) + (i % 20) * sim::ms(900);
    const int page = (i * 7 + i / 5) % 4;
    const auto device = static_cast<std::size_t>((i * 3 + i / 11) % 3);
    hint_sum += fe.serve(now, page, device).hints;
  }
  const deploy::FrontEndStats& s = fe.stats();
  EXPECT_EQ(s.serves, 600);
  EXPECT_EQ(s.cache_hits, 380);
  EXPECT_EQ(s.cache_misses, 220);
  EXPECT_EQ(s.stale_serves, 25);
  EXPECT_EQ(s.hintless_serves, 110);
  EXPECT_EQ(s.generations, 245);
  EXPECT_EQ(s.total_queue_wait, 20912000);
  EXPECT_EQ(s.total_staleness, 826134600000);
  EXPECT_EQ(hint_sum, 45083);
}

// The retired per-miss generation path, kept as the table's oracle: a fresh
// crawl world, ReplayStore, VroomProvider and OfflineResolver for every
// (page, snapshot, device), advised on the root document.
int per_miss_hints(const web::Corpus& corpus, deploy::FrontEndConfig cfg,
                   std::uint64_t seed, int page_index,
                   const web::DeviceProfile& device, sim::Time crawl_t) {
  cfg.provider.mode = core::ResolutionMode::OfflineOnly;
  cfg.provider.hint_age = 0;
  const web::PageModel& model =
      corpus.page(static_cast<std::size_t>(page_index));
  web::LoadIdentity id;
  id.wall_time = cfg.day0 + crawl_t;
  id.device = device;
  id.user = 0;
  id.nonce = sim::derive_seed(
      sim::derive_seed(seed, "deploy:crawl"),
      sim::derive_seed(static_cast<std::uint64_t>(model.page_id()),
                       static_cast<std::uint64_t>(crawl_t)));
  sim::PooledArena arena;
  const web::PageInstance crawl(model, id, arena.get());
  const server::ReplayStore store(crawl);
  core::VroomProvider provider(store, cfg.provider);
  http::Request root;
  root.url = crawl.resource(0).url;
  root.url_id = 0;
  root.is_document = true;
  root.priority = 100;
  root.device = device;
  return static_cast<int>(
      provider.advise(model.first_party(), root).hints.hints.size());
}

TEST(SnapshotHints, EqualsPerMissProviderOnEverySnapshot) {
  std::vector<web::DeviceProfile> devices;
  for (const deploy::DeviceShare& share : deploy::default_device_mix()) {
    devices.push_back(share.device);
  }
  const sim::Time window = sim::hours(24);
  for (const web::Corpus& corpus : {web::Corpus::smoke(42, 4),
                                    web::Corpus::mixed400_sample(42, 25)}) {
    for (const core::DeviceHandling handling :
         {core::DeviceHandling::Exact,
          core::DeviceHandling::EquivalenceClasses,
          core::DeviceHandling::SingleClass}) {
      deploy::FrontEndConfig cfg;
      cfg.provider.offline.device_handling = handling;
      const deploy::SnapshotHints hints =
          built_table(corpus, cfg, devices, window);
      int compared = 0;
      std::int64_t total = 0;
      for (int p = 0; p < static_cast<int>(corpus.size()); ++p) {
        for (sim::Time t = hints.last_crawl(0, p); t < window;
             t += hints.period()) {
          for (std::size_t d = 0; d < devices.size(); ++d) {
            const int got = hints.hints(p, t);
            ASSERT_EQ(got, per_miss_hints(corpus, cfg, 42, p, devices[d], t))
                << corpus.name() << " page " << p << " crawl " << t
                << " device " << devices[d].name << " handling "
                << static_cast<int>(handling);
            ++compared;
            total += got;
          }
        }
      }
      EXPECT_GE(compared, static_cast<int>(corpus.size() * devices.size() *
                                           (window / hints.period())));
      EXPECT_GT(total, 0) << "no snapshot carried any hint";
    }
  }
}

TEST(SnapshotHintsDeathTest, LookupOutsideTheTableAbortsNamingPageAndTime) {
  const web::Corpus corpus = web::Corpus::smoke(42, 2);
  const deploy::FrontEndConfig cfg;
  const sim::Time window = sim::hours(6);
  const deploy::SnapshotHints hints =
      built_table(corpus, cfg, {web::nexus6()}, window);
  // A real snapshot of page 1, but past the window's end.
  const sim::Time past = hints.last_crawl(window + hints.period(), 1);
  ASSERT_GE(past, window);
  EXPECT_DEATH((void)hints.hints(1, past),
               "no snapshot for page 1 at crawl time " +
                   std::to_string(past) + " us");
  // Inside the window, but not a crawl time.
  const sim::Time off_grid = hints.last_crawl(sim::hours(2), 0) + 1;
  EXPECT_DEATH((void)hints.hints(0, off_grid),
               "no snapshot for page 0 at crawl time " +
                   std::to_string(off_grid) + " us");
  // A front-end serving past the window fails the same way.
  deploy::FrontEnd fe(hints);
  EXPECT_DEATH((void)fe.serve(window + hints.period(), 1, 0),
               "no snapshot for page 1 at crawl time");
  // Rows are never resolved on demand: an unbuilt row is a hard error.
  const deploy::SnapshotHints unbuilt(corpus, cfg, 42, {web::nexus6()},
                                      window);
  EXPECT_DEATH((void)unbuilt.hints(0, unbuilt.last_crawl(0, 0)),
               "no snapshot for page 0 at crawl time -?[0-9]+ us.*unbuilt");
}

// The flagship contract: the whole report — fleet-built micro table, the
// pool-parallel warm column, and the concurrent per-level macro passes —
// is bit-identical at any worker count.
TEST(Scenario, ReportBitIdenticalAcrossJobCounts) {
  ScopedEnv cache(/*result cache off*/ "VROOM_RESULT_CACHE", nullptr);
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "400");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "2");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;

  std::vector<deploy::DeploymentReport> reports;
  for (const char* jobs : {"1", "2", "4"}) {
    ScopedEnv env("VROOM_JOBS", jobs);
    reports.push_back(deploy::run_deployment(corpus, cfg));
  }
  for (std::size_t j = 1; j < reports.size(); ++j) {
    const deploy::DeploymentReport& a = reports[0];
    const deploy::DeploymentReport& b = reports[j];
    ASSERT_EQ(a.levels.size(), b.levels.size());
    EXPECT_EQ(a.origin_link_mbps, b.origin_link_mbps);
    EXPECT_EQ(a.micro.plt, b.micro.plt);
    EXPECT_EQ(a.micro.warm_plt, b.micro.warm_plt);
    EXPECT_EQ(a.macro_arrivals, b.macro_arrivals);
    for (std::size_t i = 0; i < a.levels.size(); ++i) {
      EXPECT_EQ(a.levels[i].arrivals, b.levels[i].arrivals);
      EXPECT_EQ(a.levels[i].timeouts, b.levels[i].timeouts);
      // Byte-identical, not approximately equal.
      ASSERT_EQ(a.levels[i].plt_seconds, b.levels[i].plt_seconds);
      EXPECT_EQ(a.levels[i].served_per_sec, b.levels[i].served_per_sec);
      EXPECT_EQ(a.levels[i].p50_plt_s, b.levels[i].p50_plt_s);
      EXPECT_EQ(a.levels[i].p99_plt_s, b.levels[i].p99_plt_s);
      EXPECT_EQ(a.levels[i].hist_p50_plt_s, b.levels[i].hist_p50_plt_s);
      EXPECT_EQ(a.levels[i].hist_p99_plt_s, b.levels[i].hist_p99_plt_s);
      EXPECT_EQ(a.levels[i].mean_origin_wait_s,
                b.levels[i].mean_origin_wait_s);
      EXPECT_EQ(a.levels[i].max_link_utilization,
                b.levels[i].max_link_utilization);
      EXPECT_EQ(a.levels[i].front_end.cache_hits,
                b.levels[i].front_end.cache_hits);
      EXPECT_EQ(a.levels[i].front_end.stale_serves,
                b.levels[i].front_end.stale_serves);
    }
    ASSERT_EQ(a.stale_buckets.size(), b.stale_buckets.size());
    for (std::size_t i = 0; i < a.stale_buckets.size(); ++i) {
      EXPECT_EQ(a.stale_buckets[i].serves, b.stale_buckets[i].serves);
      EXPECT_EQ(a.stale_buckets[i].persistence,
                b.stale_buckets[i].persistence);
    }
  }
}

// Same contract, one layer further out: the virtual-plane metrics the run
// exports. The concurrent level passes all record into the shared registry,
// and every mutation commutes (counter adds, gauge maxima, fixed-bucket
// histogram increments), so metrics.csv / metrics.prom must match byte for
// byte whatever the worker pool looked like.
TEST(Scenario, ExportedMetricsByteIdenticalAcrossJobCounts) {
  ScopedEnv cache("VROOM_RESULT_CACHE", nullptr);
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "300");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "2");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.2, 2.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 200;

  const std::string base = testing::TempDir() + "vroom_deploy_metrics_j";
  std::vector<std::string> dirs;
  for (const char* jobs : {"1", "2", "4"}) {
    const std::string dir = base + jobs;
    ScopedEnv metrics("VROOM_METRICS", dir.c_str());
    ScopedEnv env("VROOM_JOBS", jobs);
    (void)deploy::run_deployment(corpus, cfg);
    dirs.push_back(dir);
  }
  // The fleet flipped the gate on from VROOM_METRICS; leave it as later
  // tests expect to find it.
  obs::set_metrics_enabled(false);

  // Virtual plane only: the wall sidecar is timing and is allowed to vary.
  for (const char* file : {"/metrics.csv", "/metrics.prom"}) {
    const std::string first = read_file(dirs[0] + file);
    ASSERT_FALSE(first.empty()) << "missing export: " << dirs[0] + file;
    for (std::size_t j = 1; j < dirs.size(); ++j) {
      EXPECT_EQ(first, read_file(dirs[j] + file))
          << file << " diverged between jobs=1 and jobs=" << dirs[j].back();
    }
  }
}

// Contention is simulated, not approximated: pushing offered load far past
// the origin links' capacity must degrade tail PLT.
TEST(Scenario, TailPltDegradesAcrossLinkCapacity) {
  ScopedEnv cache("VROOM_RESULT_CACHE", nullptr);
  ScopedEnv trace("VROOM_TRACE", nullptr);
  ScopedEnv cap("VROOM_DEPLOY_ARRIVALS", "6000");
  ScopedEnv window("VROOM_DEPLOY_WINDOW_HOURS", "6");
  const web::Corpus corpus = web::Corpus::smoke(42, 3);

  deploy::ScenarioConfig cfg;
  cfg.offered_levels = {0.05, 8.0};
  cfg.stale_ages = {sim::hours(1)};
  cfg.population.users = 300;
  // Flat profile: the capped arrival prefix would otherwise fall in the
  // diurnal overnight trough, where even the heavy level is under capacity.
  cfg.population.diurnal.assign(24, 1.0);
  // Deeper overload (2.5x the hottest origin's link) so the ~12 simulated
  // minutes of capped traffic build an unambiguous backlog.
  cfg.origin_capacity_frac = 0.4;
  // Links sized to 60% of the hottest origin's demand at 8/s: the low
  // level idles at ~0.4% utilization, the high level queues hard.
  const deploy::DeploymentReport report =
      deploy::run_deployment(corpus, cfg);
  ASSERT_EQ(report.levels.size(), 2u);
  const deploy::LevelReport& light = report.levels[0];
  const deploy::LevelReport& heavy = report.levels[1];
  EXPECT_GT(heavy.p99_plt_s, 2.0 * light.p99_plt_s)
      << "p99 " << light.p99_plt_s << "s -> " << heavy.p99_plt_s << "s";
  EXPECT_GT(heavy.max_link_utilization, light.max_link_utilization);
  EXPECT_GT(heavy.mean_origin_wait_s, light.mean_origin_wait_s);
  // Median holds up far better than the tail — contention, not a constant.
  EXPECT_LT(heavy.p50_plt_s, heavy.p99_plt_s);
}

TEST(Scenario, MicroTableBucketsMapDecisionsSensibly) {
  deploy::MicroTable t;
  t.ages = {0, sim::hours(1), sim::hours(6)};
  EXPECT_EQ(t.bucket_for(deploy::HintSource::None, 0), 3);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Fresh, 0), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Cached, sim::minutes(20)), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::minutes(50)), 1);
  // Ties break toward the lower (fresher) bucket.
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::minutes(30)), 0);
  EXPECT_EQ(t.bucket_for(deploy::HintSource::Stale, sim::hours(24)), 2);
}

}  // namespace
}  // namespace vroom
