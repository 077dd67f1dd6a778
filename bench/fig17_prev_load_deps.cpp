// Figure 17: accurate dependency inference matters — returning everything
// seen in a single prior load (per-load churn included) hurts the tail.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 17", "utility of accurate dependency inference");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  // One fleet matrix covers the lower bounds and every plotted series.
  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::vroom(), baselines::vroom_prev_load_deps(),
       baselines::http2_baseline()},
      opt));
  const auto& lb_net = results[0];
  const auto& lb_cpu = results[1];
  std::vector<double> bound;
  for (std::size_t i = 0; i < lb_net.loads.size(); ++i) {
    bound.push_back(std::max(sim::to_seconds(lb_net.loads[i].plt),
                             sim::to_seconds(lb_cpu.loads[i].plt)));
  }

  harness::print_quartile_bars(
      "Page Load Time", "seconds",
      {{"Lower Bound", bound},
       {results[2].strategy, results[2].plt_seconds()},
       {results[3].strategy, results[3].plt_seconds()},
       {results[4].strategy, results[4].plt_seconds()}});
  return 0;
}
