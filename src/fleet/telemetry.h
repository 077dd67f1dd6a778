// Run telemetry for fleet sweeps.
//
// Each job of a run writes one record — its wall time and the virtual time
// its load covered — into a pre-assigned slot of a per-job table, so the
// pool needs no shared counters. After the pool joins, summarize() makes
// one pass over the table that yields both the summary and, under
// VROOM_METRICS, the `fleet.*` metrics, so the two can never disagree.
// Printing goes wherever the caller points it — benches send it to stderr
// so stdout stays byte-identical across worker counts.
//
// A run is a set of *cells* — one (corpus, strategy, options) entry of a
// SweepPlan — and every job belongs to exactly one cell. The summary rolls
// jobs up per cell as well as per run, so a multi-corpus sweep shows where
// its wall time went.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/stats.h"
#include "sim/time.h"

namespace vroom::fleet {

// Per-cell aggregate: one row per SweepPlan cell, in plan order.
struct CellTelemetrySummary {
  std::string label;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  double busy_seconds = 0;       // summed worker time spent on this cell
  double simulated_seconds = 0;  // summed virtual time of the cell's loads
};

struct TelemetrySummary {
  int workers = 0;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  // Always 0: the on-disk result cache was removed. Kept for the benchmark
  // program, which still asserts it.
  std::size_t jobs_from_cache = 0;
  double wall_seconds = 0;        // pool start .. join
  double jobs_per_second = 0;
  double busy_seconds_total = 0;  // summed job wall time
  double utilization = 0;         // busy / (wall * workers)
  double simulated_seconds = 0;   // summed virtual time of all loads
  double sim_to_wall_ratio = 0;   // how much faster than real time we simulate
  harness::Quartiles job_seconds; // per-job wall-time distribution
  std::vector<CellTelemetrySummary> cells;  // plan order
};

// One finished job: its cell, its wall time and the virtual time its load
// covered.
struct JobRecord {
  int cell = 0;
  double wall_seconds = 0;
  sim::Time simulated = 0;
};

// One planned cell: its display label and how many jobs it submits.
struct CellPlan {
  std::string label;
  std::size_t jobs = 0;
};

// The run's summary from its per-job table, built after the pool joined:
// `records` holds one entry per finished job, `wall_seconds` spans the pool.
// When obs metrics are enabled the same pass records the fleet.* metrics
// (DESIGN.md §12): job totals and summed virtual time are commutative
// adds, so the virtual-plane export is byte-identical at any VROOM_JOBS;
// the job wall-time distribution and the worker count go to the wall
// sidecar.
TelemetrySummary summarize(int workers, double wall_seconds,
                           const std::vector<CellPlan>& cells,
                           const std::vector<JobRecord>& records);

// Caller-owned sink for one run's summary (FleetOptions::telemetry):
// run_plan overwrites it once the pool has joined.
class Telemetry {
 public:
  void set_summary(TelemetrySummary summary) { summary_ = std::move(summary); }
  const TelemetrySummary& summary() const { return summary_; }

  // Human-readable dump of summary(): the run paragraph plus, for
  // multi-cell plans, one row per cell.
  void print(std::FILE* out) const;

 private:
  TelemetrySummary summary_;
};

}  // namespace vroom::fleet
