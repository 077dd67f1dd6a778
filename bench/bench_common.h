// Shared setup for the figure-regeneration benches.
//
// Every bench prints the same rows/series as the corresponding figure in the
// paper (shape reproduction; absolute values come from the simulated device
// and link, see EXPERIMENTS.md). Set VROOM_BENCH_PAGES=<n> to cap corpus
// size for quick runs and VROOM_JOBS=<n> to size the worker pool (results
// are bit-identical for any worker count; fleet telemetry goes to stderr).
//
// Benches build their entire (corpus × strategy) grid as one
// fleet::SweepPlan (add / add_matrix) and run it with bench::run_plan, so no
// strategy or corpus serializes behind another and the longest pages
// dispatch first.
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "web/corpus.h"

namespace vroom::bench {

constexpr std::uint64_t kSeed = 42;

inline harness::RunOptions default_options() {
  harness::RunOptions opt;
  opt.seed = kSeed;
  return opt;
}

// Executes a declarative (corpus × strategy) plan on one shared pool and
// prints the run's telemetry (with per-cell rows) to stderr — stdout
// carries only the deterministic tables. Results come back in plan order.
inline std::vector<harness::CorpusResult> run_plan(
    const fleet::SweepPlan& plan) {
  fleet::Telemetry telemetry;
  fleet::FleetOptions fo;
  fo.telemetry = &telemetry;
  auto results = fleet::run_plan(plan, fo);
  telemetry.print(stderr);
  return results;
}

// The Figure 2 achievable lower bound, page by page: the larger of the
// network-bound and CPU-bound values — the best a page-load redesign can do
// without rewriting the page, if it fully uses at least one of the client's
// two resources. Both series are in page order.
inline std::vector<double> lower_bound_of(const std::vector<double>& network,
                                          const std::vector<double>& cpu) {
  std::vector<double> bound;
  bound.reserve(network.size());
  for (std::size_t i = 0; i < network.size(); ++i) {
    bound.push_back(std::max(network[i], cpu[i]));
  }
  return bound;
}

inline void banner(const char* fig, const char* what) {
  std::printf("-------------------------------------------------------\n");
  std::printf("%s: %s\n", fig, what);
  std::printf("-------------------------------------------------------\n");
}

}  // namespace vroom::bench
