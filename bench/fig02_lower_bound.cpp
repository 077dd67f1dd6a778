// Figure 2: potential for reducing page load times by fully utilizing the
// client's CPU or network. Series: network-bottleneck loads (all URLs known
// up front, nothing evaluated), CPU-bottleneck loads (servers local, no
// network delay), the per-page max of the two, and real loads (HTTP/1.1).
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 2", "lower bounds from full CPU/network utilization");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::http11()},
      opt));
  const auto& network = results[0];
  const auto& cpu = results[1];
  const auto& web_loads = results[2];

  const auto net_s = network.plt_seconds();
  const auto cpu_s = cpu.plt_seconds();

  harness::print_cdf_table("Page Load Time", "seconds",
                           {{"Network Bottleneck", net_s},
                            {"CPU Bottleneck", cpu_s},
                            {"Max(CPU, Network)",
                             bench::lower_bound_of(net_s, cpu_s)},
                            {"Loads from Web", web_loads.plt_seconds()}});
  return 0;
}
