// Figure 18: HTTP/2 PUSH alone is insufficient — without dependency hints,
// servers cannot tell clients about the third-party resources that dominate
// modern pages.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 18", "push-only versus push + dependency hints");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  // One fleet matrix covers the lower bounds and every plotted series.
  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::vroom(), baselines::push_high_prio_no_hints(),
       baselines::push_all_no_hints()},
      opt));
  harness::print_quartile_bars(
      "Page Load Time", "seconds",
      {{"Lower Bound", bench::lower_bound_of(results[0].plt_seconds(),
                                             results[1].plt_seconds())},
       {results[2].strategy, results[2].plt_seconds()},
       {results[3].strategy, results[3].plt_seconds()},
       {results[4].strategy, results[4].plt_seconds()}});
  return 0;
}
