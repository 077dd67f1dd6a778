// deploy_day: deploy::run_deployment with the default ScenarioConfig, run
// over several independent Mixed-400 samples. The timed pass runs every
// scenario on a fixed worker count; the traced pass reruns them serially,
// once untraced (layer wall times) and once with recorders on the micro
// loads and the macro levels, whose event streams must pass
// obs::audit_macro_trace.
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "baselines/strategies.h"
#include "browser/cache.h"
#include "deploy/scenario.h"
#include "harness/experiment.h"
#include "obs/audit.h"
#include "sim/random.h"
#include "vbench.h"

namespace vroom::vbench {

namespace {

// run_deployment sizes its pool from VROOM_JOBS (it takes no worker
// argument), so the benchmark pins it there.
constexpr const char* kTimedWorkers = "2";

// One seed yields this many independent scenarios of this many pages. The
// share of page views that overload an origin, and so the served-PLT
// median, hinges on which page a scenario's Zipf popularity puts first;
// pooling several scenarios keeps those metrics from swinging with the
// seed, at the cost of one 100-page scenario.
constexpr int kInstances = 4;
constexpr int kPages = 25;

struct Instance {
  std::unique_ptr<web::Corpus> corpus;
  deploy::ScenarioConfig cfg;
};

std::vector<Instance> deploy_inputs(std::uint64_t seed) {
  std::vector<Instance> in;
  for (int k = 0; k < kInstances; ++k) {
    const std::uint64_t s =
        sim::derive_seed(seed, "vbench:deploy-" + std::to_string(k));
    Instance& i = in.emplace_back();
    i.corpus =
        std::make_unique<web::Corpus>(web::Corpus::mixed400_sample(s, kPages));
    i.cfg.seed = s;
    i.cfg.micro.seed = s;
    // The default levels / 8: the same four levels crossing the
    // auto-sized origin capacity, with few enough page views that the
    // traced pass's per-level recorders stay small (about 2 GiB at the
    // default levels).
    i.cfg.offered_levels = {0.00625, 0.025, 0.1, 0.4};
  }
  return in;
}

// One run of every scenario.
struct Pass {
  std::vector<deploy::DeploymentReport> reports;
  std::vector<double> wall_s;
};

Pass run_pass(const std::vector<Instance>& in,
              const std::function<void(deploy::ScenarioConfig&)>& decorate =
                  {}) {
  Pass pass;
  for (const Instance& i : in) {
    deploy::ScenarioConfig cfg = i.cfg;
    if (decorate) decorate(cfg);
    const double t0 = now_seconds();
    pass.reports.push_back(deploy::run_deployment(*i.corpus, cfg));
    pass.wall_s.push_back(now_seconds() - t0);
  }
  return pass;
}

std::uint64_t digest_of(const Pass& pass) {
  Digest d;
  for (const deploy::DeploymentReport& r : pass.reports) {
    for (const auto& device : r.micro.plt) {
      for (const auto& bucket : device) {
        for (const sim::Time plt : bucket) {
          d.add(static_cast<std::int64_t>(plt));
        }
      }
    }
    for (const auto& device : r.micro.warm_plt) {
      for (const sim::Time plt : device) d.add(static_cast<std::int64_t>(plt));
    }
    for (const deploy::LevelReport& l : r.levels) {
      d.add(l.arrivals);
      d.add(l.timeouts);
      d.add(l.front_end.serves);
      d.add(l.front_end.cache_hits);
      d.add(l.front_end.stale_serves);
      d.add(l.front_end.hintless_serves);
      d.add(l.mean_origin_wait_s);
      d.add(l.max_link_utilization);
      for (const double plt : l.plt_seconds) d.add(plt);
    }
  }
  return d.value();
}

// Loads the micro table and the warm column simulate in one scenario.
std::int64_t micro_loads(const deploy::DeploymentReport& r) {
  std::int64_t loads = 0;
  for (const auto& device : r.micro.plt) {
    for (const auto& bucket : device) {
      loads += static_cast<std::int64_t>(bucket.size());
    }
  }
  for (const auto& device : r.micro.warm_plt) {
    loads += 2 * static_cast<std::int64_t>(device.size());  // prime + revisit
  }
  return loads;
}

// Wall time of the micro tables and warm columns: everything but the
// macro passes.
double micro_wall(const Pass& pass) {
  double s = 0;
  for (std::size_t k = 0; k < pass.reports.size(); ++k) {
    s += pass.wall_s[k] - pass.reports[k].macro_wall_seconds;
  }
  return s;
}

// One timed round's throughput: loads of the micro tables and warm
// columns over their own wall time, macro page views over the macro
// passes'.
struct RoundRate {
  double loads_per_s = 0;
  double serves_per_s = 0;
};

RoundRate rate_of(const Pass& pass) {
  std::int64_t loads = 0, arrivals = 0;
  double macro_s = 0;
  for (const deploy::DeploymentReport& r : pass.reports) {
    loads += micro_loads(r);
    arrivals += r.macro_arrivals;
    macro_s += r.macro_wall_seconds;
  }
  return {static_cast<double>(loads) / micro_wall(pass),
          static_cast<double>(arrivals) / macro_s};
}

void report_end_to_end(const std::vector<Instance>& in, const Pass& first,
                       const std::vector<RoundRate>& rounds, double setup_s,
                       Run& run) {
  std::vector<double> loads_per_s, serves_per_s;
  for (const RoundRate& round : rounds) {
    loads_per_s.push_back(round.loads_per_s);
    serves_per_s.push_back(round.serves_per_s);
  }
  print_rounds("loads_per_s", loads_per_s);
  print_rounds("serves_per_s", serves_per_s);

  // Vroom cells: the fresh-hint micro column; its HTTP/2 counterpart is
  // the hintless column (a plain HTTP/2 load).
  std::vector<double> vroom_plt, http2_plt, served_plt;
  std::int64_t arrivals = 0, timeouts = 0;
  for (std::size_t k = 0; k < in.size(); ++k) {
    const deploy::DeploymentReport& r = first.reports[k];
    for (const auto& device : r.micro.plt) {
      for (const sim::Time plt : device.front()) {
        vroom_plt.push_back(sim::to_seconds(plt));
      }
      for (const sim::Time plt : device.back()) {
        http2_plt.push_back(sim::to_seconds(plt));
      }
    }
    const double timeout_s = sim::to_seconds(in[k].cfg.micro.timeout);
    for (const deploy::LevelReport& l : r.levels) {
      timeouts += l.timeouts;
      for (const double plt : l.plt_seconds) {
        if (plt < timeout_s) served_plt.push_back(plt);
      }
    }
    arrivals += r.macro_arrivals;
  }
  run.checks.expect(
      static_cast<std::int64_t>(served_plt.size()) + timeouts == arrivals,
      "every macro page view is served or timed out");
  run.attempted = arrivals;
  run.timeouts = timeouts;

  const std::optional<double> vroom_p90 = tail_percentile(vroom_plt, 90);
  const std::optional<double> p99 = tail_percentile(served_plt, 99);
  run.checks.expect(vroom_p90.has_value() && p99.has_value(),
                    "reported percentiles have at least 10 samples beyond");

  run.e2e("setup_s", setup_s, "s");
  run.e2e("loads_per_s", median(loads_per_s), "loads/s");
  run.e2e("serves_per_s", median(serves_per_s), "serves/s");
  run.e2e("vroom_plt_p50_s", median(vroom_plt), "s");
  run.e2e("vroom_plt_p90_s", vroom_p90.value_or(0.0), "s");
  run.e2e("vroom_speedup_p50", speedup_p50(http2_plt, vroom_plt), "ratio");
  run.e2e("plt_p50_s", median(served_plt), "s");
  run.e2e("plt_p99_s", p99.value_or(0.0), "s");
}

// Replays, one call at a time, the loads each scenario's micro table and
// warm column make for each (device, page): the fresh-hint and hintless
// cold loads and the prime/revisit pair. Each must reproduce the table
// entry run_deployment reported.
void replay_micro_loads(const std::vector<Instance>& in, const Pass& untraced,
                        Run& run) {
  const baselines::Strategy fresh = baselines::vroom_stale_hints(0);
  const baselines::Strategy hintless = baselines::http2_baseline();
  const std::vector<deploy::DeviceShare> mix = deploy::default_device_mix();

  std::vector<double> vroom_ms, http2_ms, net_wait;
  std::int64_t loads = 0, sim_events = 0, hits = 0, requests = 0;
  bool table_matches = true;
  obs::reset_phase_profile();
  obs::set_profiling_enabled(true);
  for (std::size_t k = 0; k < in.size(); ++k) {
    const deploy::ScenarioConfig& cfg = in[k].cfg;
    const deploy::MicroTable& table = untraced.reports[k].micro;
    const auto capped = [&](sim::Time plt) {
      return std::min(plt, cfg.micro.timeout);
    };
    for (std::size_t d = 0; d < mix.size(); ++d) {
      for (std::size_t p = 0; p < in[k].corpus->size(); ++p) {
        const web::PageModel& page = in[k].corpus->page(p);
        harness::RunOptions opt = cfg.micro;
        opt.device = mix[d].device;
        const std::uint64_t nonce0 =
            harness::derive_load_nonce(cfg.seed, page.page_id(), 0);
        const auto timed_load = [&](const baselines::Strategy& s,
                                    std::uint64_t nonce,
                                    std::vector<double>* ms) {
          const double t0 = now_seconds();
          browser::LoadResult load =
              harness::run_page_load(page, s, opt, nonce);
          if (ms != nullptr) ms->push_back(1e3 * (now_seconds() - t0));
          net_wait.push_back(load.net_wait_fraction());
          sim_events += load.sim_events;
          ++loads;
          return load;
        };
        const sim::Time fresh_plt = timed_load(fresh, nonce0, &vroom_ms).plt;
        const sim::Time hintless_plt =
            timed_load(hintless, nonce0, &http2_ms).plt;
        browser::Cache cache;
        opt.cache = &cache;
        timed_load(fresh, nonce0, nullptr);
        opt.when += cfg.revisit_gap;
        const browser::LoadResult revisit = timed_load(
            fresh, harness::derive_load_nonce(cfg.seed, page.page_id(), 1),
            nullptr);
        hits += revisit.cache_hits;
        requests += revisit.requests;  // network fetches; hits not included
        table_matches = table_matches &&
                        capped(fresh_plt) == table.plt[d].front()[p] &&
                        capped(hintless_plt) == table.plt[d].back()[p] &&
                        capped(revisit.plt) == table.warm_plt[d][p];
      }
    }
  }
  obs::set_profiling_enabled(false);
  run.checks.expect(table_matches,
                    "direct run_page_load calls reproduce the micro table");

  run.layer("harness.load_ms.vroom", median(vroom_ms), "ms");
  run.layer("harness.load_ms.http2", median(http2_ms), "ms");
  run.idle_layer("harness.load_ms.http11", "ms");
  report_phases(obs::collect_phase_profile(), loads, sim_events, run);
  run.layer("browser.net_wait_frac", mean(net_wait), "ratio");
  run.layer("cache.hit_frac", useful_frac(hits, hits + requests), "ratio");
}

void report_deploy_layer(const std::vector<Instance>& in, const Pass& untraced,
                         Run& run) {
  double warm_s = 0, macro_s = 0;
  for (const deploy::DeploymentReport& r : untraced.reports) {
    warm_s += r.warm_wall_seconds;
    macro_s += r.macro_wall_seconds;
  }
  run.layer("deploy.micro_s", micro_wall(untraced) - warm_s, "s");
  run.layer("deploy.warm_s", warm_s, "s");
  run.layer("deploy.macro_s", macro_s, "s");

  // Each scenario's top-level population, built exactly as its macro pass
  // builds it.
  std::vector<double> population_s;
  for (const Instance& i : in) {
    deploy::PopulationConfig pop = i.cfg.population;
    pop.mean_arrivals_per_sec = i.cfg.offered_levels.back();
    const std::uint64_t seed = sim::derive_seed(
        i.cfg.seed,
        "deploy:level-" + std::to_string(i.cfg.offered_levels.size() - 1));
    population_s.push_back(median_seconds(3, [&] {
      deploy::build_population(static_cast<int>(i.corpus->size()), pop, seed);
    }));
  }
  run.layer("deploy.population_ms", 1e3 * median(population_s), "ms");

  deploy::FrontEndStats fe;
  double origin_wait_s = 0, max_util = 0;
  std::int64_t arrivals = 0;
  for (const deploy::DeploymentReport& r : untraced.reports) {
    for (const deploy::LevelReport& l : r.levels) {
      fe.serves += l.front_end.serves;
      fe.cache_hits += l.front_end.cache_hits;
      fe.cache_misses += l.front_end.cache_misses;
      fe.stale_serves += l.front_end.stale_serves;
      fe.hintless_serves += l.front_end.hintless_serves;
      fe.total_queue_wait += l.front_end.total_queue_wait;
      origin_wait_s += l.mean_origin_wait_s * static_cast<double>(l.arrivals);
      arrivals += l.arrivals;
      max_util = std::max(max_util, l.max_link_utilization);
    }
  }
  run.layer("deploy.fe_hit_ratio", fe.hit_ratio(), "ratio");
  run.layer("deploy.stale_frac", useful_frac(fe.stale_serves, fe.serves),
            "ratio");
  run.layer("deploy.hintless_frac",
            useful_frac(fe.hintless_serves, fe.serves), "ratio");
  run.layer("deploy.fe_wait_ms",
            fe.serves > 0 ? sim::to_ms(fe.total_queue_wait) /
                                static_cast<double>(fe.serves)
                          : 0.0,
            "ms");
  run.layer("deploy.origin_wait_ms",
            arrivals > 0 ? 1e3 * origin_wait_s / static_cast<double>(arrivals)
                         : 0.0,
            "ms");
  run.layer("deploy.max_link_utilization", max_util, "ratio");
}

void traced_pass(const std::vector<Instance>& in, std::uint64_t timed_digest,
                 const Args& args, Run& run) {
  setenv("VROOM_JOBS", "1", 1);
  const Pass untraced = run_pass(in);
  run.checks.expect_same_digest(
      "serial untraced scenarios reproduce the timed pass", timed_digest,
      digest_of(untraced));
  report_deploy_layer(in, untraced, run);
  replay_micro_loads(in, untraced, run);

  CounterTally tally;
  std::int64_t audited_views = 0, arrivals = 0;
  const Pass traced = run_pass(in, [&](deploy::ScenarioConfig& cfg) {
    cfg.micro.trace_sink = [&tally](const trace::Recorder& r) {
      tally.add(r);
    };
    cfg.trace_sink = [&](int level, const trace::Recorder& r) {
      const obs::MacroAuditReport audit = obs::audit_macro_trace(r);
      run.checks.expect(audit.ok(),
                        "macro trace audit clean at level " +
                            std::to_string(level) +
                            (audit.ok() ? "" : ": " + audit.errors[0]));
      audited_views += audit.page_views;
    };
  });
  for (const deploy::DeploymentReport& r : traced.reports) {
    arrivals += r.macro_arrivals;
  }
  std::uint64_t traced_digest = digest_of(traced);
  if (args.inject_digest_mismatch) traced_digest ^= 1;
  run.checks.expect_same_digest(
      "serial traced scenarios reproduce the timed pass", timed_digest,
      traced_digest);
  run.checks.expect(audited_views == arrivals,
                    "macro audit saw every page view");

  run.idle_layer("fleet.utilization", "ratio");
  report_tally(tally, run);
  run.layer("trace.overhead_frac",
            micro_wall(traced) / micro_wall(untraced) - 1.0, "ratio");
  std::vector<const web::Corpus*> corpora;
  for (const Instance& i : in) corpora.push_back(i.corpus.get());
  probe_layer_calls(corpora, net::NetworkConfig::lte(), run);
}

}  // namespace

void run_deploy_day(const Args& args, Run& run) {
  std::vector<Instance> in;
  const double setup_s =
      median_seconds(kSetupReps, [&] { in = deploy_inputs(args.seed); });

  setenv("VROOM_JOBS", kTimedWorkers, 1);
  const Pass first = run_pass(in);
  const std::uint64_t digest = digest_of(first);
  std::vector<RoundRate> rounds;
  repeat_rounds(args.seconds, [&] {
    const Pass round = run_pass(in);
    run.checks.expect_same_digest("timed rounds agree", digest,
                                  digest_of(round));
    rounds.push_back(rate_of(round));
  });
  report_end_to_end(in, first, rounds, setup_s, run);
  if (args.trace) traced_pass(in, digest, args, run);
}

}  // namespace vroom::vbench
