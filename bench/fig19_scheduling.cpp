// Figure 19: judicious coordinated scheduling of pushes and hint-driven
// fetches is key; "Push All, Fetch ASAP" congests the access link and gives
// up most of the gains.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 19", "utility of cooperative request scheduling");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::vroom(), baselines::push_all_fetch_asap(),
       baselines::http2_baseline()},
      opt));
  harness::print_quartile_bars(
      "Page Load Time", "seconds",
      {{"Lower Bound", bench::lower_bound_of(results[0].plt_seconds(),
                                             results[1].plt_seconds())},
       {results[2].strategy, results[2].plt_seconds()},
       {results[3].strategy, results[3].plt_seconds()},
       {"No Push, No Hints", results[4].plt_seconds()}});
  return 0;
}
