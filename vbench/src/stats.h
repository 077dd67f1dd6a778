// The benchmark's own arithmetic: percentiles with a tail-sample rule,
// the headline speedup ratio, per-load averaging of trace counters,
// useful/attempt ratios, and the output digest with the checks that use it.
// Everything here is a pure function of its inputs so tests/stats_test.cpp
// can pin it on fixed values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "browser/metrics.h"
#include "trace/trace.h"

namespace vroom::vbench {

// A reported percentile must have at least this many samples beyond it;
// otherwise the tail it names is a handful of pages, not a distribution.
constexpr std::int64_t kMinTailSamples = 10;

// Samples strictly beyond the p-th percentile of n samples:
// n - ceil(p/100 * n). 100 samples leave 10 beyond p90 and 1 beyond p99.
std::int64_t samples_beyond(std::size_t n, double p);

// The p-th percentile (linear interpolation, as harness::percentile) when
// at least kMinTailSamples samples lie beyond it; nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> values, double p);

double median(std::vector<double> values);
// Arithmetic mean; 0 for no values.
double mean(const std::vector<double>& values);

// The paper's headline ratio: median PLT under HTTP/2 over median PLT
// under Vroom. Above 1 means Vroom is faster. 0 when either side is empty.
double speedup_p50(const std::vector<double>& http2_plt,
                   const std::vector<double>& vroom_plt);

// Useful outcomes over attempts (push promises that paid off, hints that
// named a real resource). 0 when nothing was attempted.
double useful_frac(std::int64_t useful, std::int64_t attempts);

// Per-load tally of what a traced load recorded: its trace::Counters and
// its event count per trace::Layer. Feed it one recorder per load.
class CounterTally {
 public:
  static constexpr int kLayers = static_cast<int>(trace::Layer::Deploy) + 1;

  void add(const trace::Recorder& recorder);

  std::int64_t loads() const { return loads_; }
  std::int64_t total(const std::string& counter) const;
  // Largest value one load reported (for high-water gauges).
  std::int64_t max(const std::string& counter) const;
  // total / loads; 0 before any load.
  double per_load(const std::string& counter) const;
  double events_per_load(trace::Layer layer) const;

 private:
  std::int64_t loads_ = 0;
  std::map<std::string, std::int64_t> totals_;
  std::map<std::string, std::int64_t> maxima_;
  std::int64_t events_[kLayers] = {};
};

// FNV-1a over the simulated outputs of a run. Doubles enter as their bit
// patterns, so two runs agree only if every value is bit-identical.
class Digest {
 public:
  void add(std::int64_t v);
  void add(double v);
  // PLT, AFT, Speed Index, bytes fetched and the finished flag of a load.
  void add(const browser::LoadResult& load);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// A load is accounted for when it finished, or when it timed out and
// reports the timeout as its PLT.
bool load_accounted(const browser::LoadResult& load, sim::Time timeout);

// The output checks of one run. A failed check makes the run incorrect
// and counts as a failed operation.
class Checks {
 public:
  // Records `what` as failed unless `ok`; returns `ok`.
  bool expect(bool ok, const std::string& what);
  bool expect_same_digest(const std::string& what, std::uint64_t expected,
                          std::uint64_t actual);

  bool ok() const { return failures_.empty(); }
  std::int64_t failed() const {
    return static_cast<std::int64_t>(failures_.size());
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

}  // namespace vroom::vbench
