#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/polaris.h"
#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "harness/stats.h"
#include "web/page_generator.h"

namespace vroom::baselines {
namespace {

TEST(StrategiesTest, FactoryConfigurations) {
  EXPECT_EQ(http11().protocol, http::Protocol::Http1);
  EXPECT_EQ(http2_baseline().protocol, http::Protocol::Http2);
  EXPECT_FALSE(http2_baseline().server_aid);

  const Strategy v = vroom();
  EXPECT_TRUE(v.server_aid);
  EXPECT_TRUE(v.provider.hints_enabled);
  EXPECT_EQ(v.provider.push, core::PushSelection::HighPriorityLocal);
  EXPECT_EQ(v.sched, Strategy::Sched::VroomStaged);

  EXPECT_TRUE(vroom_first_party_only().first_party_only);
  EXPECT_EQ(vroom_prev_load_deps().provider.mode,
            core::ResolutionMode::PreviousLoad);
  EXPECT_FALSE(push_all_no_hints().provider.hints_enabled);
  EXPECT_EQ(push_all_no_hints().provider.push, core::PushSelection::AllLocal);
  EXPECT_EQ(push_all_fetch_asap().sched, Strategy::Sched::FetchAsap);
  EXPECT_TRUE(push_all_static().first_party_only);
  EXPECT_TRUE(lower_bound_network().know_all_upfront);
  EXPECT_TRUE(lower_bound_cpu().local_network);
}

TEST(StrategiesTest, MakePolicyMatchesSched) {
  EXPECT_EQ(make_policy(http2_baseline()), nullptr);
  EXPECT_NE(make_policy(vroom()), nullptr);
  EXPECT_NE(make_policy(polaris()), nullptr);
}

// Run manifests record each cell's fingerprint, so a knob change without a
// name change must still change it.
TEST(StrategiesTest, FingerprintCoversProviderKnobs) {
  std::set<std::string> prints;
  prints.insert(vroom().fingerprint());
  prints.insert(http2_baseline().fingerprint());
  prints.insert(http11().fingerprint());
  prints.insert(vroom_offline_only().fingerprint());
  prints.insert(push_all_fetch_asap().fingerprint());
  prints.insert(lower_bound_network().fingerprint());
  Strategy tweaked = vroom();
  tweaked.provider.max_hints = 10;
  prints.insert(tweaked.fingerprint());
  Strategy crawl = vroom();
  crawl.provider.offline.spacing = sim::hours(2);
  prints.insert(crawl.fingerprint());
  EXPECT_EQ(prints.size(), 8u);
  // Stable across calls.
  EXPECT_EQ(vroom().fingerprint(), vroom().fingerprint());
}

// Trace file names hash the network fingerprint, so every field of the
// config must reach it: changing any one changes the fingerprint.
TEST(NetworkProfiles, FingerprintCoversEveryField) {
  using Config = net::NetworkConfig;
  const std::vector<std::function<void(Config&)>> edits = {
      [](Config& c) { c.downlink_bps += 1; },
      [](Config& c) { c.uplink_bps += 1; },
      [](Config& c) { c.cellular_rtt += 1; },
      [](Config& c) { c.dns_lookup += 1; },
      [](Config& c) { c.mss_bytes += 1; },
      [](Config& c) { c.init_cwnd_segments += 1; },
      [](Config& c) { c.max_cwnd_segments += 1; },
      [](Config& c) { c.h2_stream_window_bytes += 1; },
      [](Config& c) { c.tls_handshake_rtts += 1; },
      [](Config& c) { c.server_think += 1; },
      [](Config& c) { c.domain_rtt_median += 1; },
      [](Config& c) { c.domain_rtt_sigma += 1e-9; },
      [](Config& c) { c.domain_rtt_min += 1; },
      [](Config& c) { c.domain_rtt_max += 1; },
      [](Config& c) { c.loss_rate += 1e-9; },
      [](Config& c) { c.rto_min += 1; },
      [](Config& c) { c.radio_promotion += 1; },
      [](Config& c) { c.radio_idle_timeout += 1; },
  };
  const std::string base = Config::lte().fingerprint();
  EXPECT_EQ(base, Config::lte().fingerprint());
  std::set<std::string> prints{base};
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Config c = Config::lte();
    edits[i](c);
    EXPECT_NE(c.fingerprint(), base) << "field edit " << i;
    prints.insert(c.fingerprint());
  }
  EXPECT_EQ(prints.size(), edits.size() + 1);
  // The named profiles are distinct too.
  for (const Config& c : {Config::lte_loaded(), Config::wifi(),
                          Config::threeg(), Config::local_usb()}) {
    EXPECT_TRUE(prints.insert(c.fingerprint()).second);
  }
}

class BaselineLoadTest : public ::testing::Test {
 protected:
  BaselineLoadTest()
      : page_(web::generate_page(42, 12, web::PageClass::News)) {}
  web::PageModel page_;
  harness::RunOptions opt_;
};

TEST_F(BaselineLoadTest, PolarisFinishesAndFetchesEverything) {
  auto r = harness::run_page_load(page_, polaris(), opt_, 1);
  ASSERT_TRUE(r.finished);
  int referenced = 0;
  for (const auto& t : r.timings) {
    if (t.referenced) {
      ++referenced;
      if (t.template_id && page_.resource(*t.template_id).blocks_onload) {
        EXPECT_NE(t.complete, sim::kNever);
      }
    }
  }
  int expected = 0;
  for (const auto& res : page_.resources()) {
    if (!page_.in_post_onload_subtree(res.id)) ++expected;
  }
  EXPECT_EQ(referenced, expected);
}

TEST_F(BaselineLoadTest, OrderingAcrossSchemesOnMedianPage) {
  // The paper's headline ordering on a typical complex page:
  // lower bound <= Vroom < Polaris-ish < HTTP/2 < HTTP/1.1.
  auto lb_net = harness::run_page_load(page_, lower_bound_network(), opt_, 1);
  auto lb_cpu = harness::run_page_load(page_, lower_bound_cpu(), opt_, 1);
  auto vr = harness::run_page_load(page_, vroom(), opt_, 1);
  auto h2 = harness::run_page_load(page_, http2_baseline(), opt_, 1);
  auto h1 = harness::run_page_load(page_, http11(), opt_, 1);
  const sim::Time bound = std::max(lb_net.plt, lb_cpu.plt);
  EXPECT_LT(bound, h2.plt);
  // Per-page, Vroom may tie the baseline (paper's Fig 13 tail shows the
  // same); it must never be meaningfully slower.
  EXPECT_LT(vr.plt, h2.plt * 102 / 100);
  EXPECT_LT(h2.plt, h1.plt * 105 / 100);
  // Vroom approaches the bound (within 2x on a single page).
  EXPECT_LT(vr.plt, bound * 2);
}

TEST_F(BaselineLoadTest, PushOnlyWorseThanVroom) {
  auto vr = harness::run_page_load(page_, vroom(), opt_, 1);
  auto push_only = harness::run_page_load(page_, push_all_no_hints(), opt_, 1);
  ASSERT_TRUE(push_only.finished);
  EXPECT_GT(push_only.plt, vr.plt);
}

TEST_F(BaselineLoadTest, RunPageMedianPicksMiddleLoad) {
  auto med = harness::run_page_median(page_, http2_baseline(), opt_);
  ASSERT_TRUE(med.finished);
  std::vector<sim::Time> plts;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t nonce =
        harness::derive_load_nonce(opt_.seed, page_.page_id(), i);
    plts.push_back(harness::run_page_load(page_, http2_baseline(), opt_,
                                          nonce).plt);
  }
  std::sort(plts.begin(), plts.end());
  EXPECT_EQ(med.plt, plts[1]);
}

TEST(StatsTest, PercentileInterpolation) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(harness::percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(harness::percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(harness::median({2, 1}), 1.5);
  EXPECT_DOUBLE_EQ(harness::percentile({}, 50), 0);
}

TEST(StatsTest, Quartiles) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  auto q = harness::quartiles(v);
  EXPECT_DOUBLE_EQ(q.p25, 26);
  EXPECT_DOUBLE_EQ(q.p50, 51);
  EXPECT_DOUBLE_EQ(q.p75, 76);
}

}  // namespace
}  // namespace vroom::baselines
