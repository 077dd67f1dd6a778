// The benchmark's own arithmetic on fixed inputs: which percentiles may be
// reported, the headline speedup, per-load counter averaging, the
// useful/attempt ratios, and the digest checks that fail a run.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "sim/event_loop.h"
#include "stats.h"

namespace vroom::vbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, CountsSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10);
  EXPECT_EQ(samples_beyond(100, 99), 1);
  EXPECT_EQ(samples_beyond(99, 90), 9);  // ceil(89.1) = 90
  EXPECT_EQ(samples_beyond(800, 99), 8);
  EXPECT_EQ(samples_beyond(1000, 99), 10);
  EXPECT_EQ(samples_beyond(0, 50), 0);
}

TEST(TailPercentile, RequiresTenSamplesBeyond) {
  // 100 pages (one corpus cell) support p90 but not p99.
  const std::optional<double> p90 = tail_percentile(one_to(100), 90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.1);  // linear interpolation at rank 89.1
  EXPECT_FALSE(tail_percentile(one_to(100), 99).has_value());
  EXPECT_FALSE(tail_percentile(one_to(99), 90).has_value());
  ASSERT_TRUE(tail_percentile(one_to(1000), 99).has_value());
  EXPECT_DOUBLE_EQ(*tail_percentile(one_to(1000), 99), 990.01);
  // The median of an even count interpolates.
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(mean({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Speedup, IsHttp2MedianOverVroomMedian) {
  EXPECT_DOUBLE_EQ(speedup_p50({2.0, 3.0, 4.0}, {1.0, 1.5, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(speedup_p50({3.0}, {4.0, 2.0, 100.0}), 0.75);
  EXPECT_DOUBLE_EQ(speedup_p50({}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(speedup_p50({1.0}, {}), 0.0);
}

TEST(UsefulFrac, DividesUsefulByAttempts) {
  EXPECT_DOUBLE_EQ(useful_frac(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(useful_frac(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(useful_frac(0, 0), 0.0);  // nothing attempted
  // push_useful_frac: (accepted - wasted) / promises.
  EXPECT_DOUBLE_EQ(useful_frac(8 - 2, 10), 0.6);
  // hint_useful_frac: 1 - ghost / acted_on.
  EXPECT_DOUBLE_EQ(useful_frac(20 - 5, 20), 0.75);
}

TEST(CounterTally, AveragesCountersAndEventsPerLoad) {
  CounterTally tally;
  EXPECT_DOUBLE_EQ(tally.per_load("net.rto_events"), 0.0);
  sim::EventLoop loop;
  {
    trace::Recorder r(loop);
    r.counters().add("net.rto_events", 3);
    r.counters().set_max("net.downlink_max_queued_us", 700);
    r.instant(trace::Layer::Net, "net", "link", "a");
    r.instant(trace::Layer::Net, "net", "link", "b");
    r.instant(trace::Layer::Http, "h", "conn", "c");
    tally.add(r);
  }
  {
    trace::Recorder r(loop);
    r.counters().add("net.rto_events", 2);
    r.counters().set_max("net.downlink_max_queued_us", 400);
    r.instant(trace::Layer::Net, "net", "link", "a");
    tally.add(r);
  }
  {
    trace::Recorder r(loop);  // a load that recorded nothing still counts
    tally.add(r);
  }
  EXPECT_EQ(tally.loads(), 3);
  EXPECT_EQ(tally.total("net.rto_events"), 5);
  EXPECT_DOUBLE_EQ(tally.per_load("net.rto_events"), 5.0 / 3.0);
  EXPECT_EQ(tally.max("net.downlink_max_queued_us"), 700);
  EXPECT_DOUBLE_EQ(tally.events_per_load(trace::Layer::Net), 1.0);
  EXPECT_DOUBLE_EQ(tally.events_per_load(trace::Layer::Http), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(tally.events_per_load(trace::Layer::Deploy), 0.0);
  EXPECT_EQ(tally.total("absent.counter"), 0);
}

browser::LoadResult load(sim::Time plt, bool finished) {
  browser::LoadResult r;
  r.finished = finished;
  r.plt = plt;
  r.aft = plt / 2;
  r.speed_index_ms = 1234.5;
  r.bytes_fetched = 100000;
  return r;
}

TEST(Digest, SeesEveryDigestedField) {
  const browser::LoadResult base = load(sim::seconds(3), true);
  Digest a;
  a.add(base);
  const auto digest_with = [](browser::LoadResult r) {
    Digest d;
    d.add(r);
    return d.value();
  };
  EXPECT_EQ(digest_with(base), a.value());
  browser::LoadResult r = base;
  r.plt += 1;
  EXPECT_NE(digest_with(r), a.value());
  r = base;
  r.aft += 1;
  EXPECT_NE(digest_with(r), a.value());
  r = base;
  r.speed_index_ms = std::nextafter(r.speed_index_ms, 1e9);  // one ulp
  EXPECT_NE(digest_with(r), a.value());
  r = base;
  r.bytes_fetched += 1;
  EXPECT_NE(digest_with(r), a.value());
  r = base;
  r.finished = false;
  EXPECT_NE(digest_with(r), a.value());
  // Order matters: the digest covers a sequence of loads.
  Digest ab, ba;
  ab.add(base);
  ab.add(load(sim::seconds(4), true));
  ba.add(load(sim::seconds(4), true));
  ba.add(base);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(Checks, DigestMismatchFailsTheRun) {
  Checks checks;
  EXPECT_TRUE(checks.expect_same_digest("same", 0xabcdefull, 0xabcdefull));
  EXPECT_TRUE(checks.ok());
  EXPECT_EQ(checks.failed(), 0);
  EXPECT_FALSE(checks.expect_same_digest("traced pass", 0x1ull, 0x0ull));
  EXPECT_FALSE(checks.ok());
  EXPECT_EQ(checks.failed(), 1);
  ASSERT_EQ(checks.failures().size(), 1u);
  EXPECT_EQ(checks.failures()[0],
            "traced pass: digest 0000000000000001 != 0000000000000000");
  EXPECT_FALSE(checks.expect(false, "second"));
  EXPECT_EQ(checks.failed(), 2);
}

TEST(Checks, LoadIsAccountedWhenFinishedOrAtTimeout) {
  const sim::Time timeout = sim::seconds(120);
  EXPECT_TRUE(load_accounted(load(sim::seconds(3), true), timeout));
  EXPECT_TRUE(load_accounted(load(timeout, false), timeout));
  EXPECT_FALSE(load_accounted(load(sim::seconds(3), false), timeout));
  EXPECT_FALSE(load_accounted(load(sim::kNever, false), timeout));
}

}  // namespace
}  // namespace vroom::vbench
