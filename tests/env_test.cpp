// harness::Env — the single parse point for every VROOM_* variable. Parsing
// must re-read the environment each call, reject malformed integers with a
// warning (not a crash or a silent garbage value), and keep each knob's
// documented default when unset.
#include "harness/env.h"

#include <climits>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "scoped_env.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

// Clears every variable Env reads, so one test's environment can't leak into
// another's expectations (the surrounding shell may set any of them).
struct CleanEnv {
  ScopedEnv jobs{"VROOM_JOBS", nullptr};
  ScopedEnv pages{"VROOM_BENCH_PAGES", nullptr};
  ScopedEnv cache{"VROOM_RESULT_CACHE", nullptr};
  ScopedEnv trace{"VROOM_TRACE", nullptr};
  ScopedEnv out{"VROOM_OUT_DIR", nullptr};
  ScopedEnv metrics{"VROOM_METRICS", nullptr};
  ScopedEnv profile{"VROOM_PROFILE", nullptr};
  ScopedEnv arrivals{"VROOM_DEPLOY_ARRIVALS", nullptr};
  ScopedEnv window{"VROOM_DEPLOY_WINDOW_HOURS", nullptr};
  ScopedEnv shard{"VROOM_SHARD", nullptr};
  ScopedEnv shard_dir{"VROOM_SHARD_DIR", nullptr};
};

TEST(Env, DefaultsWhenUnset) {
  CleanEnv clean;
  const harness::Env env = harness::Env::from_environment();
  EXPECT_EQ(env.jobs, 0);
  EXPECT_EQ(env.bench_pages, 0);
  EXPECT_EQ(env.result_cache_dir, "");
  EXPECT_EQ(env.trace_dir, "");
  EXPECT_EQ(env.out_dir, "");
  EXPECT_FALSE(env.trace_enabled());
  EXPECT_EQ(env.metrics_dir, "");
  EXPECT_FALSE(env.metrics_enabled());
  EXPECT_FALSE(env.profile);
  EXPECT_EQ(env.deploy_arrivals, 0);
  EXPECT_EQ(env.deploy_window_hours, 0);
  EXPECT_FALSE(env.shard.has_value());
  EXPECT_EQ(env.shard_dir, "");
}

// The retired sweep-acceleration variables are read verbatim (the fleet
// warns about them; the benchmark program checks they are unset) and are
// never parsed, so no value of theirs warns here.
TEST(Env, RetiredVariablesAreReadVerbatim) {
  CleanEnv clean;
  ScopedEnv cache("VROOM_RESULT_CACHE", "/tmp/vroom-rc");
  ScopedEnv shard("VROOM_SHARD", "not-a-spec");
  ScopedEnv dir("VROOM_SHARD_DIR", "/tmp/vroom-shards");
  testing::internal::CaptureStderr();
  const harness::Env env = harness::Env::from_environment();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(env.result_cache_dir, "/tmp/vroom-rc");
  ASSERT_TRUE(env.shard.has_value());
  EXPECT_EQ(*env.shard, "not-a-spec");
  EXPECT_EQ(env.shard_dir, "/tmp/vroom-shards");
}

TEST(Env, MetricsAndProfileKnobs) {
  CleanEnv clean;
  {
    ScopedEnv metrics("VROOM_METRICS", "/tmp/vroom-metrics");
    const harness::Env env = harness::Env::from_environment();
    EXPECT_EQ(env.metrics_dir, "/tmp/vroom-metrics");
    EXPECT_TRUE(env.metrics_enabled());
  }
  {
    // "0" and "" stay off.
    ScopedEnv profile("VROOM_PROFILE", "0");
    EXPECT_FALSE(harness::Env::from_environment().profile);
  }
  {
    ScopedEnv profile("VROOM_PROFILE", "");
    EXPECT_FALSE(harness::Env::from_environment().profile);
  }
  for (const char* on : {"1", "yes", "true"}) {
    ScopedEnv profile("VROOM_PROFILE", on);
    EXPECT_TRUE(harness::Env::from_environment().profile)
        << "VROOM_PROFILE=\"" << on << '"';
  }
}

TEST(Env, ParsesEveryVariable) {
  CleanEnv clean;
  ScopedEnv jobs("VROOM_JOBS", "4");
  ScopedEnv pages("VROOM_BENCH_PAGES", "8");
  ScopedEnv cache("VROOM_RESULT_CACHE", "/tmp/vroom-rc");
  ScopedEnv trace("VROOM_TRACE", "/tmp/vroom-traces");
  ScopedEnv out("VROOM_OUT_DIR", "/tmp/vroom-out");
  const harness::Env env = harness::Env::from_environment();
  EXPECT_EQ(env.jobs, 4);
  EXPECT_EQ(env.bench_pages, 8);
  EXPECT_EQ(env.result_cache_dir, "/tmp/vroom-rc");
  EXPECT_EQ(env.trace_dir, "/tmp/vroom-traces");
  EXPECT_EQ(env.out_dir, "/tmp/vroom-out");
  EXPECT_TRUE(env.trace_enabled());
}

TEST(Env, ReReadsEnvironmentEachCall) {
  CleanEnv clean;
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
  {
    ScopedEnv jobs("VROOM_JOBS", "3");
    EXPECT_EQ(harness::Env::from_environment().jobs, 3);
  }
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
}

TEST(Env, MalformedIntegersIgnoredWithDefault) {
  CleanEnv clean;
  for (const char* bad : {"", "abc", "-2", "0", "3.5", "4x", " 4", "4 "}) {
    ScopedEnv jobs("VROOM_JOBS", bad);
    ScopedEnv pages("VROOM_BENCH_PAGES", bad);
    const harness::Env env = harness::Env::from_environment();
    EXPECT_EQ(env.jobs, 0) << "VROOM_JOBS=\"" << bad << '"';
    EXPECT_EQ(env.bench_pages, 0) << "VROOM_BENCH_PAGES=\"" << bad << '"';
  }
}

TEST(Env, HugeIntegerOutOfRangeIgnored) {
  CleanEnv clean;
  ScopedEnv jobs("VROOM_JOBS", "99999999999999999999");
  EXPECT_EQ(harness::Env::from_environment().jobs, 0);
}

TEST(Env, EffectivePageCount) {
  CleanEnv clean;
  {
    const harness::Env env = harness::Env::from_environment();
    EXPECT_EQ(env.effective_page_count(100), 100);  // uncapped
  }
  {
    ScopedEnv pages("VROOM_BENCH_PAGES", "8");
    const harness::Env env = harness::Env::from_environment();
    EXPECT_EQ(env.effective_page_count(100), 8);
    EXPECT_EQ(env.effective_page_count(5), 5);  // cap never raises
  }
}

// Seeded-mutation robustness for the numeric knobs: a valid value, mutated
// by random insertions, deletions and replacements drawn from signs,
// whitespace, letters and overflow-sized digit runs, must either parse to
// exactly the positive integer its whole string spells, or read as unset
// with exactly one warning line naming the variable and the value.
struct NumericKnob {
  const char* name;
  int harness::Env::*field;
};

// The oracle, independent of the parser: every character a digit, the
// value in [1, INT_MAX]; 0 for anything else.
int expected_positive(const std::string& value) {
  if (value.empty()) return 0;
  std::int64_t v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + (c - '0');
    if (v > INT_MAX) return 0;
  }
  return static_cast<int>(v);
}

std::string mutate(std::string value, std::mt19937_64& rng) {
  static const char* const kTokens[] = {
      "+", "-", " ", "\t", "a", "x", "Z", "e", ".", "0", "7",
      "99999999999", "2147483648", "18446744073709551616"};
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::string token = kTokens[rng() % std::size(kTokens)];
    const std::size_t at = value.empty() ? 0 : rng() % (value.size() + 1);
    switch (rng() % 3) {
      case 0:  // insert
        value.insert(at, token);
        break;
      case 1:  // delete one character
        if (!value.empty()) value.erase(at % value.size(), 1);
        break;
      default:  // replace one character
        if (value.empty()) {
          value = token;
        } else {
          value.replace(at % value.size(), 1, token);
        }
        break;
    }
  }
  return value;
}

TEST(Env, MutatedNumericValuesParseExactlyOrWarnOnce) {
  CleanEnv clean;
  const NumericKnob knobs[] = {
      {"VROOM_JOBS", &harness::Env::jobs},
      {"VROOM_BENCH_PAGES", &harness::Env::bench_pages},
      {"VROOM_DEPLOY_ARRIVALS", &harness::Env::deploy_arrivals},
      {"VROOM_DEPLOY_WINDOW_HOURS", &harness::Env::deploy_window_hours},
  };
  std::mt19937_64 rng(20171017);
  int accepted = 0;
  int rejected = 0;
  for (const NumericKnob& knob : knobs) {
    for (int i = 0; i < 200; ++i) {
      const std::string value = mutate("48", rng);
      ScopedEnv env(knob.name, value.c_str());
      testing::internal::CaptureStderr();
      const harness::Env parsed = harness::Env::from_environment();
      const std::string err = testing::internal::GetCapturedStderr();
      const int want = expected_positive(value);
      SCOPED_TRACE(std::string(knob.name) + "=\"" + value + '"');
      EXPECT_EQ(parsed.*knob.field, want);
      if (want > 0) {
        EXPECT_EQ(err, "");
        ++accepted;
      } else {
        const std::string quoted =
            std::string(knob.name) + "=\"" + value + '"';
        EXPECT_EQ(err.rfind("[env] warning: ", 0), 0u) << err;
        EXPECT_NE(err.find(quoted), std::string::npos) << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
        ++rejected;
      }
    }
  }
  // The mutation mix must exercise both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace vroom
