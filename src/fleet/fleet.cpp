#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <tuple>
#include <utility>

#include "harness/env.h"
#include "harness/export.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "sim/random.h"

namespace vroom::fleet {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// One plan cell, compiled: page/load extents, the flat-grid slot offset and
// the resolved display label.
struct CompiledCell {
  CellExtent extent;
  std::size_t slot_offset = 0;
  std::string label;
};

// The sweep-acceleration variables were removed; say so once per plan
// rather than let a stale script believe it is caching or sharding.
void warn_retired_variables(const harness::Env& env) {
  const auto warn = [](const char* name) {
    std::fprintf(stderr,
                 "[fleet] warning: %s is no longer supported and is "
                 "ignored\n",
                 name);
  };
  if (!env.result_cache_dir.empty()) warn("VROOM_RESULT_CACHE");
  if (env.shard.has_value()) warn("VROOM_SHARD");
  if (!env.shard_dir.empty()) warn("VROOM_SHARD_DIR");
}

}  // namespace

int resolve_worker_count(int requested, const harness::Env& env) {
  if (requested > 0) return requested;
  if (env.jobs > 0) return env.jobs;
  return hardware_workers();
}

int resolve_worker_count(int requested) {
  return resolve_worker_count(requested, harness::Env::from_environment());
}

void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers) {
  if (count == 0) return;
  int resolved = resolve_worker_count(workers);
  if (static_cast<std::size_t>(resolved) > count) {
    resolved = static_cast<int>(count);
  }
  if (resolved <= 1) {
    // Serial path: index order on the calling thread (VROOM_JOBS=1 replays
    // the serial visit order).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(resolved));
  for (int w = 0; w < resolved; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

std::vector<Job> serial_job_order(const std::vector<CellExtent>& cells) {
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int p = 0; p < cells[c].pages; ++p) {
      for (int l = 0; l < cells[c].loads; ++l) {
        jobs.push_back(Job{static_cast<int>(c), p, l});
      }
    }
  }
  return jobs;
}

std::vector<Job> order_longest_first(
    std::vector<Job> jobs,
    const std::function<std::size_t(const Job&)>& size_of) {
  // Sizes are looked up once per job, not once per comparison: size_of may
  // walk corpus pages, and comparator calls are O(n log n).
  std::vector<std::size_t> size(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) size[i] = size_of(jobs[i]);
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (size[a] != size[b]) return size[a] > size[b];
    return std::tuple(jobs[a].cell_index, jobs[a].page_index,
                      jobs[a].load_index) <
           std::tuple(jobs[b].cell_index, jobs[b].page_index,
                      jobs[b].load_index);
  });
  std::vector<Job> out;
  out.reserve(jobs.size());
  for (std::size_t i : order) out.push_back(jobs[i]);
  return out;
}

std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet) {
  const int n_cells = static_cast<int>(plan.cells.size());

  // Observability gates, flipped once per run from the environment (the obs
  // library itself never reads env). A fresh run owns the registry and the
  // phase tables: the export and the printed profile cover exactly this run
  // plus whatever the caller records before the next one starts.
  const harness::Env env = harness::Env::from_environment();
  warn_retired_variables(env);
  obs::set_metrics_enabled(env.metrics_enabled());
  obs::set_profiling_enabled(env.profile);
  if (env.metrics_enabled()) obs::registry().reset();
  if (env.profile) obs::reset_phase_profile();

  // Compile the plan: per-cell extents and flat result-grid offsets. Each
  // cell may bring its own loads_per_page / options, so offsets accumulate.
  std::vector<CompiledCell> cells(static_cast<std::size_t>(n_cells));
  std::vector<CellExtent> extents;
  std::vector<CellPlan> cell_plans;
  std::size_t total_jobs = 0;
  bool any_warm_cache = false;
  for (int c = 0; c < n_cells; ++c) {
    const SweepCell& cell = plan.cells[static_cast<std::size_t>(c)];
    CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    cc.extent.pages = env.effective_page_count(
        static_cast<int>(cell.corpus->size()));
    cc.extent.loads = cell.options.loads_per_page;
    cc.slot_offset = total_jobs;
    cc.label = cell.label.empty() ? cell.strategy.name : cell.label;
    const std::size_t jobs = static_cast<std::size_t>(cc.extent.pages) *
                             static_cast<std::size_t>(cc.extent.loads);
    total_jobs += jobs;
    any_warm_cache |= cell.options.cache != nullptr;
    extents.push_back(cc.extent);
    cell_plans.push_back(CellPlan{cc.label, jobs});
  }
  // The flat job list, first in serial (cell, page, load) visit order.
  std::vector<Job> jobs = serial_job_order(extents);

  int workers = resolve_worker_count(fleet.workers, env);
  // A shared warm cache is mutated in load order; parallel execution would
  // change which loads hit it. Degrade to the serial order instead.
  if (any_warm_cache) workers = 1;
  if (total_jobs < static_cast<std::size_t>(workers)) {
    workers = static_cast<int>(total_jobs);
  }
  if (workers < 1) workers = 1;

  // Dispatch order. One worker keeps the serial grid order — that is the
  // documented VROOM_JOBS=1 "replay the serial path" mode, and warm-cache
  // cells depend on it. A real pool dispatches longest-job-first (page
  // resource count as the size proxy) so the heaviest pages start early
  // instead of straggling at the tail; the order is a pure function of the
  // plan (ties by job identity), and results never depend on it — slots
  // and seeds are job-identity-based.
  if (workers > 1) {
    jobs = order_longest_first(
        std::move(jobs), [&plan](const Job& job) -> std::size_t {
          return plan.cells[static_cast<std::size_t>(job.cell_index)]
              .corpus->page(static_cast<std::size_t>(job.page_index))
              .size();
        });
  }

  // Flat result grid, one pre-assigned slot per job, and the per-job
  // telemetry table indexed like `jobs`: workers never write to
  // overlapping memory, and claim order cannot affect where results land.
  std::vector<browser::LoadResult> grid(total_jobs);
  std::vector<JobRecord> records(total_jobs);
  auto slot = [&cells](const Job& job) -> std::size_t {
    const CompiledCell& cc = cells[static_cast<std::size_t>(job.cell_index)];
    return cc.slot_offset +
           static_cast<std::size_t>(job.page_index) *
               static_cast<std::size_t>(cc.extent.loads) +
           static_cast<std::size_t>(job.load_index);
  };

  const double pool_started = monotonic_seconds();
  run_tasks(
      jobs.size(),
      [&](std::size_t i) {
        const Job& job = jobs[i];
        const double started = monotonic_seconds();
        const SweepCell& cell =
            plan.cells[static_cast<std::size_t>(job.cell_index)];
        const web::PageModel& page =
            cell.corpus->page(static_cast<std::size_t>(job.page_index));
        // Seed derivation matches harness::run_page_median exactly: the
        // nonce depends only on (seed, page id, load index).
        const std::uint64_t nonce = harness::derive_load_nonce(
            cell.options.seed, page.page_id(), job.load_index);
        browser::LoadResult result =
            harness::run_page_load(page, cell.strategy, cell.options, nonce);
        records[i] = JobRecord{job.cell_index,
                               monotonic_seconds() - started, result.plt};
        grid[slot(job)] = std::move(result);
      },
      workers);
  const TelemetrySummary summary = summarize(
      workers, monotonic_seconds() - pool_started, cell_plans, records);
  if (fleet.telemetry != nullptr) fleet.telemetry->set_summary(summary);
  if (env.profile) {
    // Collected after the pool joins: every worker's thread-local table has
    // folded into the retired aggregate, so the table partitions the run's
    // whole worker time. Stderr only — stdout stays frozen.
    std::fputs(obs::format_phase_profile(obs::collect_phase_profile(),
                                         summary.busy_seconds_total)
                   .c_str(),
               stderr);
  }
  if (env.metrics_enabled()) {
    obs::PhaseTimer export_phase(obs::Phase::Export);
    std::error_code ec;
    std::filesystem::create_directories(env.metrics_dir, ec);
    obs::registry().export_to(env.metrics_dir);
    obs::Manifest manifest;
    manifest.set("schema", std::int64_t{1});
    manifest.set("kind", "fleet_sweep");
    manifest.set("env.jobs", static_cast<std::int64_t>(env.jobs));
    manifest.set("env.bench_pages",
                 static_cast<std::int64_t>(env.bench_pages));
    manifest.set("env.trace", env.trace_dir);
    manifest.set("env.out_dir", env.out_dir);
    manifest.set("env.metrics", env.metrics_dir);
    manifest.set("env.profile", std::int64_t{env.profile ? 1 : 0});
    manifest.set("env.deploy_arrivals",
                 static_cast<std::int64_t>(env.deploy_arrivals));
    manifest.set("env.deploy_window_hours",
                 static_cast<std::int64_t>(env.deploy_window_hours));
    manifest.set("workers", static_cast<std::int64_t>(workers));
    manifest.set("jobs.total", static_cast<std::uint64_t>(total_jobs));
    manifest.set("cells", static_cast<std::int64_t>(n_cells));
    for (int c = 0; c < n_cells; ++c) {
      const SweepCell& cell = plan.cells[static_cast<std::size_t>(c)];
      const CompiledCell& cc = cells[static_cast<std::size_t>(c)];
      const std::string prefix = "cell." + std::to_string(c) + ".";
      manifest.set(prefix + "label", cc.label);
      manifest.set(prefix + "fingerprint", cell.strategy.fingerprint());
      manifest.set(prefix + "seed",
                   static_cast<std::uint64_t>(cell.options.seed));
      manifest.set(prefix + "pages",
                   static_cast<std::int64_t>(cc.extent.pages));
      manifest.set(prefix + "loads",
                   static_cast<std::int64_t>(cc.extent.loads));
    }
    manifest.set("digest.metrics_prom",
                 sim::hex64(obs::registry().digest(obs::Plane::Virtual)));
    manifest.set("digest.wall_sidecar_prom",
                 sim::hex64(obs::registry().digest(obs::Plane::Wall)));
    manifest.write(env.metrics_dir + "/manifest.json");
  }

  // Median selection in load-index order, identical to run_page_median;
  // per-cell results in plan order.
  std::vector<harness::CorpusResult> results(
      static_cast<std::size_t>(n_cells));
  for (int c = 0; c < n_cells; ++c) {
    const CompiledCell& cc = cells[static_cast<std::size_t>(c)];
    auto& out = results[static_cast<std::size_t>(c)];
    out.strategy = cc.label;
    out.loads.reserve(static_cast<std::size_t>(cc.extent.pages));
    for (int p = 0; p < cc.extent.pages; ++p) {
      std::vector<browser::LoadResult> runs;
      runs.reserve(static_cast<std::size_t>(cc.extent.loads));
      for (int l = 0; l < cc.extent.loads; ++l) {
        runs.push_back(std::move(grid[slot(Job{c, p, l})]));
      }
      out.loads.push_back(harness::select_median_load(std::move(runs)));
    }
    // Tracing runs export their aggregated counters alongside the figure
    // CSVs (no-op when tracing was off or VROOM_OUT_DIR is unset).
    harness::maybe_export_counters("trace counters " + cc.label,
                                   out.counter_totals());
  }
  return results;
}

}  // namespace vroom::fleet
