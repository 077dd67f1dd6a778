// Figure 16: per-page improvement over HTTP/2 in (a) the time to discover
// resources and (b) the time to finish fetching them, for all referenced
// resources and for the high-priority (HTML/CSS/JS) subset.
#include "bench_common.h"

namespace {

std::vector<double> improvement(const std::vector<double>& baseline,
                                const std::vector<double>& vroom) {
  std::vector<double> out;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    out.push_back(baseline[i] > 0 ? (baseline[i] - vroom[i]) / baseline[i]
                                  : 0.0);
  }
  return out;
}

}  // namespace

int main() {
  using namespace vroom;
  bench::banner("Figure 16", "discovery / fetch-completion improvements");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
      ns, {baselines::http2_baseline(), baselines::vroom()}, opt));
  const auto& h2 = results[0];
  const auto& vr = results[1];

  auto column = [&](auto getter) {
    std::vector<double> base, vroomv;
    for (std::size_t i = 0; i < h2.loads.size(); ++i) {
      base.push_back(sim::to_seconds(getter(h2.loads[i])));
      vroomv.push_back(sim::to_seconds(getter(vr.loads[i])));
    }
    return improvement(base, vroomv);
  };

  harness::print_cdf_table(
      "(a) Discovery-time improvement over HTTP/2", "fraction",
      {{"High Priority Only", column([](const browser::LoadResult& r) {
          return r.high_prio_discovered;
        })},
       {"All", column([](const browser::LoadResult& r) {
          return r.all_discovered;
        })}});

  harness::print_cdf_table(
      "(b) Fetch-time improvement over HTTP/2", "fraction",
      {{"High Priority Only", column([](const browser::LoadResult& r) {
          return r.high_prio_fetched;
        })},
       {"All", column([](const browser::LoadResult& r) {
          return r.all_fetched;
        })}});
  return 0;
}
