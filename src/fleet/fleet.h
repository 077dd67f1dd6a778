// Parallel simulation fleet: executes corpus sweeps on a worker thread pool.
//
// The entry point is declarative: a `SweepPlan` lists (corpus × strategy ×
// options) *cells*, and `run_plan` compiles the whole plan into one flat
// (cell, page, load) job list executed on the fleet's one worker pool,
// `run_tasks` — so a multi-corpus bench grid (the paper's Fig 13/21
// evaluation shape) never pays one straggling pool tail per corpus. It is
// the only way to run a sweep: benches, examples and tests all build a plan.
//
// Every job builds a fully private simulation world (event loop, network,
// page instance, servers, browser) exactly as the serial harness does, and
// derives its seeds purely from the job's identity — (cell options' seed,
// page id, load index) — never from execution order, and writes into a
// pre-assigned result slot. The determinism contract: plan output is
// bit-identical, cell by cell, to a serial harness::run_page_median over
// each page for any worker count. `VROOM_JOBS=1` additionally preserves
// the serial execution *order*, not just its results.
//
// With more than one worker, jobs dispatch in deterministic
// longest-job-first order (page resource count as the size proxy, ties by
// job identity — see order_longest_first) instead of FIFO, so the heaviest
// pages cannot land last and leave the pool idling behind one straggler.
// Dispatch order never affects results, only wall-clock time.
//
// Warm-cache cells (RunOptions::cache != nullptr) share one mutable cache
// whose state depends on load order, so the fleet degrades the whole plan
// to a single worker automatically rather than silently changing semantics.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/telemetry.h"
#include "harness/env.h"
#include "harness/experiment.h"

namespace vroom::fleet {

struct FleetOptions {
  // Worker threads. 0 means "resolve": take VROOM_JOBS from the environment
  // if set and valid, else std::thread::hardware_concurrency().
  int workers = 0;
  // Optional sink for run telemetry; caller-owned, overwritten per run.
  Telemetry* telemetry = nullptr;
};

// Resolves a worker count: `requested` > 0 wins; otherwise VROOM_JOBS from
// `env` (run_plan passes its plan-start snapshot, so one plan sees one
// consistent knob set); otherwise the hardware concurrency (at least 1).
// The one-argument overload takes a fresh environment snapshot.
int resolve_worker_count(int requested, const harness::Env& env);
int resolve_worker_count(int requested);

// The fleet's one worker pool: runs `count` independent tasks
// `fn(0) .. fn(count-1)` on `workers` threads (0 = resolve: VROOM_JOBS,
// else hardware), claiming indices from one atomic cursor. With one worker
// — or one task — the tasks run in index order on the calling thread, the
// VROOM_JOBS=1 serial-replay mode. The caller owns the fleet determinism
// contract: tasks must be mutually independent (disjoint output slots, no
// claim-order-dependent state), so results cannot depend on the worker
// count. run_plan runs every sweep on it, and the deployment scenario its
// warm-revisit column and macro passes.
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn,
               int workers = 0);

// One unit of sweep work: a single load of a single page under a single
// plan cell. The indices derive its seed and address its result slot.
struct Job {
  int cell_index = 0;
  int page_index = 0;
  int load_index = 0;
};

// A compiled cell's extent: pages swept and loads per page.
struct CellExtent {
  int pages = 0;
  int loads = 0;
};

// Every job of cells with these extents, in the serial visit order:
// cell-major, then page, then load. run_plan compiles each plan into this
// list, and one worker runs it in this order.
std::vector<Job> serial_job_order(const std::vector<CellExtent>& cells);

// Deterministic longest-job-first dispatch order: sorts jobs by descending
// `size_of(job)` (the caller's size proxy — the fleet uses the page's
// resource count), with ties broken by job identity (cell, then page, then
// load, ascending). The result is a pure function of the job set and the
// size proxy — independent of the input order, the worker count, and any
// prior run — so reordering can never make results irreproducible.
std::vector<Job> order_longest_first(
    std::vector<Job> jobs,
    const std::function<std::size_t(const Job&)>& size_of);

// One cell of a sweep: a full corpus swept under one strategy with its own
// RunOptions. Cells are independent — different corpora, seeds, networks,
// loads_per_page per cell are all fine and each cell's result is identical
// to the same cell run alone.
struct SweepCell {
  const web::Corpus* corpus = nullptr;  // caller-owned; must outlive run_plan
  baselines::Strategy strategy;
  harness::RunOptions options;
  // Names the cell in telemetry rows, CorpusResult::strategy, and the
  // trace-counter CSV export. Empty means "use strategy.name". Give
  // distinct labels when one strategy appears over several corpora, or its
  // counter exports collide on the same file slug.
  std::string label;
};

// A declarative (corpus × strategy) sweep: the unit the fleet executes.
// Build with add()/add_matrix() (chainable) or fill `cells` directly.
struct SweepPlan {
  std::vector<SweepCell> cells;

  SweepPlan& add(const web::Corpus& corpus, baselines::Strategy strategy,
                 harness::RunOptions options = {}, std::string label = {}) {
    cells.push_back(SweepCell{&corpus, std::move(strategy),
                              std::move(options), std::move(label)});
    return *this;
  }

  // One cell per strategy over a shared corpus and options: the usual
  // figure grid.
  SweepPlan& add_matrix(const web::Corpus& corpus,
                        const std::vector<baselines::Strategy>& strategies,
                        const harness::RunOptions& options = {}) {
    for (const baselines::Strategy& strategy : strategies) {
      add(corpus, strategy, options);
    }
    return *this;
  }
};

// Executes every cell of the plan on the worker pool and returns one
// CorpusResult per cell, in plan order: one median-of-N load per page, in
// page order, bit-identical at any worker count. The telemetry summary
// carries one row per cell. VROOM_RESULT_CACHE, VROOM_SHARD and
// VROOM_SHARD_DIR are retired: each one that is set gets one stderr line per
// plan saying it is ignored, and results never depend on them.
std::vector<harness::CorpusResult> run_plan(const SweepPlan& plan,
                                            const FleetOptions& fleet = {});

}  // namespace vroom::fleet
