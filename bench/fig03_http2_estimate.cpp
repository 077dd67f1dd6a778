// Figure 3: estimated improvement from global HTTP/2 adoption, with and
// without the first party pushing all of its static resources, against
// HTTP/1.1 replay (which tracks real web loads).
#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Figure 3", "HTTP/2 adoption estimate");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns,
      {baselines::http2_baseline(), baselines::push_all_static(),
       baselines::http11()},
      opt));
  std::vector<harness::Series> series;
  for (const auto& r : results) series.push_back({r.strategy, r.plt_seconds()});
  harness::print_cdf_table("Page Load Time", "seconds", series);
  return 0;
}
