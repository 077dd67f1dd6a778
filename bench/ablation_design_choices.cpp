// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out: hint staging, push selection, offline crawl-window length, and
// device-equivalence handling.
//
// All five ablation blocks share one SweepPlan pool: the unmodified Vroom
// baseline runs once and its series is reused by every block that shows it,
// and no block's sweep serializes behind another's straggler.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Ablations", "Vroom design-choice sensitivity");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  std::vector<baselines::Strategy> grid;
  grid.push_back(baselines::vroom());  // shared baseline (blocks 1 and 2)

  // 1. Client staging on/off (hints identical, scheduling differs).
  {
    baselines::Strategy unstaged = baselines::vroom();
    unstaged.name = "Vroom, unstaged client";
    unstaged.sched = baselines::Strategy::Sched::FetchAsap;
    grid.push_back(std::move(unstaged));
  }

  // 2. Push selection: none / high-priority-local / all-local.
  {
    baselines::Strategy no_push = baselines::vroom();
    no_push.name = "Vroom, hints only (no push)";
    no_push.provider.push = core::PushSelection::None;
    grid.push_back(std::move(no_push));
    baselines::Strategy push_all = baselines::vroom();
    push_all.name = "Vroom, push all local";
    push_all.provider.push = core::PushSelection::AllLocal;
    grid.push_back(std::move(push_all));
  }

  // 3. Offline crawl-window length (number of hourly loads intersected).
  for (int loads : {1, 3, 6}) {
    baselines::Strategy s = baselines::vroom();
    s.name = "Vroom, " + std::to_string(loads) + " crawl(s)";
    s.provider.offline.loads = loads;
    grid.push_back(std::move(s));
  }

  // 4. Hint budget: how many hint URLs per response are enough?
  for (int budget : {0, 80, 40, 15}) {
    baselines::Strategy s = baselines::vroom();
    s.name = budget == 0 ? "Vroom, unlimited hints"
                         : "Vroom, <=" + std::to_string(budget) + " hints";
    s.provider.max_hints = budget;
    grid.push_back(std::move(s));
  }

  // 5. Device handling: exact / equivalence classes / single class.
  const std::pair<core::DeviceHandling, const char*> modes[] = {
      {core::DeviceHandling::Exact, "exact device"},
      {core::DeviceHandling::EquivalenceClasses, "equivalence classes"},
      {core::DeviceHandling::SingleClass, "single class"}};
  for (const auto& [mode, label] : modes) {
    baselines::Strategy s = baselines::vroom();
    s.name = std::string("Vroom, ") + label;
    s.provider.offline.device_handling = mode;
    grid.push_back(std::move(s));
  }

  const auto results =
      bench::run_plan(fleet::SweepPlan().add_matrix(ns, grid, opt));
  std::vector<harness::Series> rows;
  for (const auto& r : results) rows.push_back({r.strategy, r.plt_seconds()});

  harness::print_quartile_bars("Ablation 1: client-side staging",
                               "seconds PLT", {rows[0], rows[1]});
  harness::print_quartile_bars("Ablation 2: push selection", "seconds PLT",
                               {rows[0], rows[2], rows[3]});
  harness::print_quartile_bars("Ablation 3: offline crawl window",
                               "seconds PLT", {rows[4], rows[5], rows[6]});
  harness::print_quartile_bars("Ablation 4: hint-header budget", "seconds PLT",
                               {rows[7], rows[8], rows[9], rows[10]});
  harness::print_quartile_bars("Ablation 5: device handling", "seconds PLT",
                               {rows[11], rows[12], rows[13]});
  return 0;
}
