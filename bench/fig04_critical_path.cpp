// Figure 4: fraction of the critical path spent waiting on the network when
// the client speaks HTTP/2 to every domain. Also prints the same fraction
// under Vroom (the §6.1 claim: ~24 % reduction in network wait).
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 4", "critical-path time waiting on the network");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns, {baselines::http2_baseline(), baselines::vroom()}, opt));
  const auto& h2 = results[0];
  const auto& vr = results[1];

  harness::print_cdf_table("Fraction of critical path waiting on network",
                           "fraction",
                           {{"HTTP/2 Baseline", h2.net_wait_fractions()},
                            {"Vroom", vr.net_wait_fractions()}});

  const double h2_med = harness::median(h2.net_wait_fractions());
  const double vr_med = harness::median(vr.net_wait_fractions());
  harness::print_stat("median net-wait reduction with Vroom",
                      h2_med > 0 ? (h2_med - vr_med) / h2_med : 0, "fraction");
  return 0;
}
