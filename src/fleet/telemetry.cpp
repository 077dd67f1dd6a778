#include "fleet/telemetry.h"

#include "obs/metrics.h"

namespace vroom::fleet {

TelemetrySummary summarize(int workers, double wall_seconds,
                           const std::vector<CellPlan>& cells,
                           const std::vector<JobRecord>& records) {
  TelemetrySummary s;
  s.workers = workers;
  s.wall_seconds = wall_seconds;
  s.cells.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    s.cells[c].label = cells[c].label;
    s.cells[c].jobs_submitted = cells[c].jobs;
    s.jobs_submitted += cells[c].jobs;
  }
  const bool metrics = obs::metrics_enabled();
  std::vector<double> job_seconds;
  job_seconds.reserve(records.size());
  for (const JobRecord& r : records) {
    const double simulated = sim::to_seconds(r.simulated);
    ++s.jobs_completed;
    s.busy_seconds_total += r.wall_seconds;
    s.simulated_seconds += simulated;
    job_seconds.push_back(r.wall_seconds);
    CellTelemetrySummary& cell = s.cells[static_cast<std::size_t>(r.cell)];
    ++cell.jobs_completed;
    cell.busy_seconds += r.wall_seconds;
    cell.simulated_seconds += simulated;
    if (metrics) {
      static obs::Counter& completed =
          obs::registry().counter("fleet.jobs.completed");
      static obs::Counter& virtual_us =
          obs::registry().counter("fleet.sim.virtual_us");
      static obs::Histogram& wall_us =
          obs::registry().histogram("fleet.jobs.wall_us", obs::Plane::Wall);
      completed.add();
      virtual_us.add(r.simulated);
      wall_us.record(static_cast<std::int64_t>(r.wall_seconds * 1e6));
    }
  }
  if (metrics) {
    obs::registry().gauge("fleet.run.workers", obs::Plane::Wall).set_max(
        workers);
  }
  if (s.wall_seconds > 0) {
    s.jobs_per_second = static_cast<double>(s.jobs_completed) / s.wall_seconds;
    s.sim_to_wall_ratio = s.simulated_seconds / s.wall_seconds;
    if (s.workers > 0) {
      s.utilization = s.busy_seconds_total / (s.wall_seconds * s.workers);
    }
  }
  s.job_seconds = harness::quartiles(job_seconds);
  return s;
}

void Telemetry::print(std::FILE* out) const {
  const TelemetrySummary& s = summary_;
  std::fprintf(out,
               "[fleet] workers=%d jobs=%zu/%zu wall=%.3fs "
               "throughput=%.1f jobs/s\n",
               s.workers, s.jobs_completed, s.jobs_submitted, s.wall_seconds,
               s.jobs_per_second);
  std::fprintf(out,
               "[fleet] busy=%.3fs (utilization %.0f%%)  simulated=%.1fs "
               "(%.0fx wall)  job p25/p50/p75=%.3f/%.3f/%.3fs\n",
               s.busy_seconds_total, s.utilization * 100, s.simulated_seconds,
               s.sim_to_wall_ratio, s.job_seconds.p25, s.job_seconds.p50,
               s.job_seconds.p75);
  if (s.cells.size() < 2) return;  // single-cell runs need no breakdown
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    const CellTelemetrySummary& cell = s.cells[c];
    std::fprintf(out,
                 "[fleet]   cell %zu \"%s\": jobs=%zu/%zu busy=%.3fs "
                 "simulated=%.1fs\n",
                 c, cell.label.c_str(), cell.jobs_completed,
                 cell.jobs_submitted, cell.busy_seconds,
                 cell.simulated_seconds);
  }
}

}  // namespace vroom::fleet
