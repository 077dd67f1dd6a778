// Figure 13: the headline result — PLT, Above-the-Fold Time, and Speed Index
// CDFs for Lower Bound / Vroom / HTTP/2 Baseline / HTTP/1.1 over the News +
// Sports corpus. Also prints the §6.1 extras: the Mixed-400 corpus medians
// and the incremental-deployment (first-party-only) median.
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 13", "PLT / AFT / Speed Index, headline comparison");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);
  const web::Corpus mixed = web::Corpus::mixed400_sample(bench::kSeed);

  // The full figure grid — every News+Sports series (including the §6.1
  // first-party-only run) plus the Mixed-400 §6.1 pair — rides one
  // SweepPlan pool, so no corpus or strategy serializes behind another.
  fleet::SweepPlan plan;
  plan.add_matrix(
      ns,
      {baselines::lower_bound_network(), baselines::lower_bound_cpu(),
       baselines::vroom(), baselines::http2_baseline(), baselines::http11(),
       baselines::vroom_first_party_only()},
      opt);
  plan.add_matrix(mixed, {baselines::http2_baseline(), baselines::vroom()},
                  opt);
  const auto results = bench::run_plan(plan);
  const auto& lb_net = results[0];
  const auto& lb_cpu = results[1];
  const auto& vr = results[2];
  const auto& h2 = results[3];
  const auto& h1 = results[4];
  const auto& partial = results[5];
  const auto& mixed_h2 = results[6];
  const auto& mixed_vr = results[7];

  harness::print_cdf_table(
      "(a) Page Load Time", "seconds",
      {{"Lower Bound",
        bench::lower_bound_of(lb_net.plt_seconds(), lb_cpu.plt_seconds())},
       {"Vroom", vr.plt_seconds()},
       {"HTTP/2 Baseline", h2.plt_seconds()},
       {"HTTP/1.1", h1.plt_seconds()}});

  harness::print_cdf_table(
      "(b) Above-the-fold Time", "seconds",
      {{"Lower Bound",
        bench::lower_bound_of(lb_net.aft_seconds(), lb_cpu.aft_seconds())},
       {"Vroom", vr.aft_seconds()},
       {"HTTP/2 Baseline", h2.aft_seconds()},
       {"HTTP/1.1", h1.aft_seconds()}});

  harness::print_cdf_table(
      "(c) Speed Index", "ms",
      {{"Lower Bound",
        bench::lower_bound_of(lb_net.speed_indices(),
                              lb_cpu.speed_indices())},
       {"Vroom", vr.speed_indices()},
       {"HTTP/2 Baseline", h2.speed_indices()},
       {"HTTP/1.1", h1.speed_indices()}});

  // §6.1 text results.
  std::printf("\n-- §6.1 text results --\n");
  harness::print_stat("Mixed-400 median PLT, HTTP/2",
                      harness::median(mixed_h2.plt_seconds()), "s");
  harness::print_stat("Mixed-400 median PLT, Vroom",
                      harness::median(mixed_vr.plt_seconds()), "s");
  harness::print_stat("News+Sports median PLT, Vroom first-party-only",
                      harness::median(partial.plt_seconds()), "s");
  return 0;
}
