// Shared pieces of the benchmark program: arguments, the metric sink one
// run fills, and the per-layer probes both workload families use.
// README.md in this directory defines every workload and metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/phase_profiler.h"
#include "stats.h"
#include "web/corpus.h"

namespace vroom::vbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
  // Flips one bit of the traced digest before it is compared: proves that
  // a mismatch fails the run (README.md, "Output checks").
  bool inject_digest_mismatch = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool exercised = true;  // false: the workload never runs this layer
};

// What one run measured and checked.
struct Run {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Page views simulated, and how many of them hit the timeout; main()
  // turns these and the failed checks into completed_frac.
  std::int64_t attempted = 0;
  std::int64_t timeouts = 0;
  Checks checks;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  // A per-layer metric of a layer this workload does not run; reported as
  // 0 so every workload prints the same metric set.
  void idle_layer(std::string name, std::string unit) {
    per_layer.push_back({std::move(name), 0.0, std::move(unit), false});
  }
};

// Set-up is repeated and its median reported: one corpus generation takes
// milliseconds, too short to time once.
constexpr int kSetupReps = 15;
// A timed pass runs at least this many rounds, however short --seconds is.
constexpr std::size_t kMinRounds = 3;

// Monotonic wall clock, seconds.
double now_seconds();

// Calls `round` until `seconds` have passed and it ran kMinRounds times.
template <typename Fn>
void repeat_rounds(int seconds, Fn&& round) {
  const double start = now_seconds();
  for (std::size_t n = 0; n < kMinRounds || now_seconds() - start < seconds;
       ++n) {
    round();
  }
}

// Prints one line with a timed pass's per-round values, so a reader can
// see the spread behind the reported median.
void print_rounds(const char* metric, const std::vector<double>& values);

// Times `fn` `reps` times and returns the median seconds of one call.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  s.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_seconds();
    fn();
    s.push_back(now_seconds() - t0);
  }
  return median(std::move(s));
}

// The workloads (plan_workloads.cpp, deploy_workload.cpp).
void run_headline_lte(const Args& args, Run& run);
void run_lossy_3g(const Args& args, Run& run);
void run_deploy_day(const Args& args, Run& run);

// Per-layer probes shared by the workloads (layers.cpp).

// Direct timings of the web, core and net layers over the workload's
// pages: web.generate_page_ms, web.instance_ms, core.stable_set_ms and
// net.tcp_bulk_ms (a 2 MB transfer on `bulk_profile`).
void probe_layer_calls(const std::vector<const web::Corpus*>& corpora,
                       const net::NetworkConfig& bulk_profile, Run& run);

// Host time per load inside run_page_load, from the phase profiler, and
// the event loop's rate: harness.world_build_ms, web.intern_ms,
// sim.run_ms, sim.events_per_load, sim.events_per_s.
void report_phases(const obs::PhaseProfile& profile, std::int64_t loads,
                   std::int64_t sim_events, Run& run);

// Virtual-plane per-load counts of the traced pass, by layer.
void report_tally(const CounterTally& tally, Run& run);

}  // namespace vroom::vbench
