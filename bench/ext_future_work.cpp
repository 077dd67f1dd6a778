// The paper's stated future-work directions, implemented and measured:
//   1. §6.1 — combine Vroom's server aid with Polaris-style client
//      prioritization of self-discovered resources (tail behaviour).
//   2. §7  — cross-page offline resolution: crawl one page per site/type
//      and share the stable infrastructure slots with its siblings.
//   3. WProf-style critical-path decomposition of where each scheme spends
//      its load time (network / compute / queueing).
#include "browser/wprof.h"
#include "core/type_sharing.h"

#include "bench_common.h"

int main() {
  using namespace vroom;
  bench::banner("Future-work extensions", "Vroom+Polaris, §7 sharing, WProf");
  const harness::RunOptions opt = bench::default_options();
  const web::Corpus ns = web::Corpus::news_sports(bench::kSeed);

  // 1. Vroom + Polaris, including the tail the paper highlights.
  {
    const auto results = bench::run_plan(fleet::SweepPlan().add_matrix(
        ns,
        {baselines::vroom(), baselines::vroom_plus_polaris(),
         baselines::polaris()},
        opt));
    harness::print_cdf_table("Vroom + Polaris combination", "seconds PLT",
                             {{"Vroom", results[0].plt_seconds()},
                              {"Vroom + Polaris", results[1].plt_seconds()},
                              {"Polaris", results[2].plt_seconds()}});
  }

  // 2. Cross-page offline resolution (§7).
  {
    std::vector<double> own, shared, none;
    const int sites = harness::effective_page_count(30);
    for (int s = 0; s < sites; ++s) {
      auto pages = web::generate_site_pages(
          bench::kSeed, static_cast<std::uint32_t>(s), web::PageClass::News,
          4);
      for (int t = 1; t < 4; ++t) {
        auto sample = core::measure_type_sharing(
            pages[static_cast<std::size_t>(t)], pages[0], sim::days(45),
            web::nexus6(), 1, {});
        own.push_back(sample.fn_per_page_crawl);
        shared.push_back(sample.fn_type_shared);
        none.push_back(sample.fn_online_only_scan);
      }
    }
    harness::print_cdf_table(
        "False negatives: per-page crawls vs type-shared crawls (crawl cost "
        "/4)",
        "fraction",
        {{"Per-page crawls", own},
         {"Type-shared crawls", shared},
         {"Online scan only", none}});
  }

  // 3. WProf critical-path decomposition.
  {
    std::vector<double> h2_net, vr_net;
    const int n = harness::effective_page_count(24);
    for (int i = 0; i < n; ++i) {
      const auto& page = ns.page(static_cast<std::size_t>(i * 4));
      web::LoadIdentity id;
      id.wall_time = opt.when;
      id.device = opt.device;
      id.user = opt.user;
      id.nonce = 1;
      const web::PageInstance inst(page, id);
      auto h2 =
          harness::run_page_load(page, baselines::http2_baseline(), opt, 1);
      auto vr = harness::run_page_load(page, baselines::vroom(), opt, 1);
      h2_net.push_back(
          browser::extract_critical_path(h2, inst,
                                         browser::CpuCosts::nexus6())
              .network_fraction());
      vr_net.push_back(
          browser::extract_critical_path(vr, inst,
                                         browser::CpuCosts::nexus6())
              .network_fraction());
    }
    harness::print_cdf_table("WProf critical-path network fraction",
                             "fraction",
                             {{"HTTP/2 Baseline", h2_net},
                              {"Vroom", vr_net}});
  }
  return 0;
}
