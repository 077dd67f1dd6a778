// headline_lte and lossy_3g: corpus sweeps driven through one
// fleet::SweepPlan. The timed pass runs the plan on the fleet with tracing
// off; the traced pass replays every job of the plan serially through
// harness::run_page_load, first without a recorder (host time per layer)
// and then with one (virtual-plane counts).
#include <memory>

#include "baselines/strategies.h"
#include "fleet/fleet.h"
#include "harness/experiment.h"
#include "vbench.h"

namespace vroom::vbench {

namespace {

// How a cell's loads are classified for the load_ms metrics.
enum class Family { Vroom, Http2, Http11, Other };

struct CellInfo {
  Family family = Family::Other;
  // Counts toward the vroom_plt / vroom_speedup pools (News+Sports only).
  bool headline_pool = false;
};

struct PlanInputs {
  std::vector<std::unique_ptr<web::Corpus>> corpora;  // stable addresses
  fleet::SweepPlan plan;
  std::vector<CellInfo> cells;
  int workers = 1;
  net::NetworkConfig bulk_profile;

  const web::Corpus& corpus(web::Corpus c) {
    corpora.push_back(std::make_unique<web::Corpus>(std::move(c)));
    return *corpora.back();
  }
  void add(const web::Corpus& corpus, baselines::Strategy strategy,
           const harness::RunOptions& opt, const std::string& tag,
           CellInfo info) {
    std::string label = corpus.name() + ":" + tag + ":" + strategy.name;
    plan.add(corpus, std::move(strategy), opt, std::move(label));
    cells.push_back(info);
  }
};

// Fig 13's grid, cold: every News+Sports series plus the Mixed-400 pair,
// three loads per page on good-signal LTE, on a 2-worker fleet.
PlanInputs headline_inputs(std::uint64_t seed) {
  PlanInputs in;
  in.workers = 2;
  in.bulk_profile = net::NetworkConfig::lte();
  harness::RunOptions opt;
  opt.seed = seed;
  const web::Corpus& ns = in.corpus(web::Corpus::news_sports(seed));
  const web::Corpus& mixed = in.corpus(web::Corpus::mixed400_sample(seed));
  in.add(ns, baselines::lower_bound_network(), opt, "lte", {});
  in.add(ns, baselines::lower_bound_cpu(), opt, "lte", {});
  in.add(ns, baselines::vroom(), opt, "lte", {Family::Vroom, true});
  in.add(ns, baselines::http2_baseline(), opt, "lte", {Family::Http2, true});
  in.add(ns, baselines::http11(), opt, "lte", {Family::Http11, false});
  in.add(ns, baselines::vroom_first_party_only(), opt, "lte", {});
  in.add(mixed, baselines::http2_baseline(), opt, "lte",
         {Family::Http2, false});
  in.add(mixed, baselines::vroom(), opt, "lte", {Family::Vroom, false});
  return in;
}

// News+Sports on LTE with 1% segment loss and on 3G, one load per page,
// on one worker. The vroom_* pools take the lossy-LTE cells only: pooled
// with 3G (PLTs twice as long) the median would fall between the two
// modes and swing with the seed.
PlanInputs lossy_inputs(std::uint64_t seed) {
  PlanInputs in;
  in.workers = 1;
  net::NetworkConfig lossy = net::NetworkConfig::lte();
  lossy.loss_rate = 0.01;
  in.bulk_profile = lossy;
  const web::Corpus& ns = in.corpus(web::Corpus::news_sports(seed));
  struct Profile {
    const char* tag;
    net::NetworkConfig config;
    bool headline_pool;
  };
  const Profile profiles[] = {{"lte-loss1", lossy, true},
                              {"3g", net::NetworkConfig::threeg(), false}};
  for (const Profile& p : profiles) {
    harness::RunOptions opt;
    opt.seed = seed;
    opt.loads_per_page = 1;
    opt.network = p.config;
    in.add(ns, baselines::vroom(), opt, p.tag, {Family::Vroom, p.headline_pool});
    in.add(ns, baselines::http2_baseline(), opt, p.tag,
           {Family::Http2, p.headline_pool});
    in.add(ns, baselines::http11(), opt, p.tag, {Family::Http11, false});
  }
  return in;
}

std::int64_t plan_loads(const fleet::SweepPlan& plan) {
  std::int64_t loads = 0;
  for (const fleet::SweepCell& cell : plan.cells) {
    loads += static_cast<std::int64_t>(cell.corpus->size()) *
             cell.options.loads_per_page;
  }
  return loads;
}

std::uint64_t digest_of(const std::vector<harness::CorpusResult>& results) {
  Digest d;
  for (const harness::CorpusResult& cell : results) {
    for (const browser::LoadResult& load : cell.loads) d.add(load);
  }
  return d.value();
}

// The timed pass: the whole plan on the fleet, tracing off, repeated for
// the run's measuring time after one untimed warm-up round.
struct TimedPass {
  std::vector<harness::CorpusResult> results;  // from the warm-up round
  std::uint64_t digest = 0;
  std::vector<double> round_seconds;
  std::vector<double> utilization;
};

TimedPass timed_pass(const PlanInputs& in, int seconds, Checks& checks) {
  TimedPass out;
  const auto round = [&](std::vector<harness::CorpusResult>* keep) {
    fleet::Telemetry telemetry;
    fleet::FleetOptions fo;
    fo.workers = in.workers;
    fo.telemetry = &telemetry;
    const double t0 = now_seconds();
    std::vector<harness::CorpusResult> results = fleet::run_plan(in.plan, fo);
    const double wall = now_seconds() - t0;
    const fleet::TelemetrySummary s = telemetry.summary();
    checks.expect(s.workers == in.workers && s.jobs_from_cache == 0,
                  "fleet ran every job on the fixed worker count, none "
                  "from the result cache");
    const std::uint64_t digest = digest_of(results);
    if (keep != nullptr) {
      out.digest = digest;
      *keep = std::move(results);
    } else {
      checks.expect_same_digest("timed rounds agree", out.digest, digest);
      out.round_seconds.push_back(wall);
      out.utilization.push_back(s.utilization);
    }
  };
  round(&out.results);
  repeat_rounds(seconds, [&] { round(nullptr); });
  return out;
}

// End-to-end metrics from the timed pass (README.md, "End-to-end").
void report_end_to_end(const PlanInputs& in, const TimedPass& timed,
                       double setup_s, Run& run) {
  std::vector<double> vroom_plt, http2_plt, served_plt;
  std::int64_t views = 0, timeouts = 0;
  for (std::size_t c = 0; c < timed.results.size(); ++c) {
    const harness::RunOptions& opt = in.plan.cells[c].options;
    for (const browser::LoadResult& load : timed.results[c].loads) {
      ++views;
      run.checks.expect(load_accounted(load, opt.timeout),
                        "every load finished or reports the timeout");
      if (!load.finished) {
        ++timeouts;
        continue;
      }
      const double plt = sim::to_seconds(load.plt);
      served_plt.push_back(plt);
      if (!in.cells[c].headline_pool) continue;
      if (in.cells[c].family == Family::Vroom) vroom_plt.push_back(plt);
      if (in.cells[c].family == Family::Http2) http2_plt.push_back(plt);
    }
  }
  run.attempted = views;
  run.timeouts = timeouts;

  const double loads = static_cast<double>(plan_loads(in.plan));
  std::vector<double> loads_per_s, views_per_s;
  for (const double s : timed.round_seconds) {
    loads_per_s.push_back(loads / s);
    views_per_s.push_back(static_cast<double>(views) / s);
  }
  print_rounds("loads_per_s", loads_per_s);
  const std::optional<double> vroom_p90 = tail_percentile(vroom_plt, 90);
  run.checks.expect(vroom_p90.has_value(),
                    "vroom_plt_p90_s has at least 10 samples beyond it");

  run.e2e("setup_s", setup_s, "s");
  run.e2e("loads_per_s", median(loads_per_s), "loads/s");
  run.e2e("serves_per_s", median(views_per_s), "serves/s");
  run.e2e("vroom_plt_p50_s", median(vroom_plt), "s");
  run.e2e("vroom_plt_p90_s", vroom_p90.value_or(0.0), "s");
  run.e2e("vroom_speedup_p50", speedup_p50(http2_plt, vroom_plt), "ratio");
  run.e2e("plt_p50_s", median(served_plt), "s");
}

// The traced pass: every job of the plan, serially, first without and
// then with a recorder. Both passes must reproduce the timed digest.
void traced_pass(const PlanInputs& in, const TimedPass& timed,
                 const Args& args, Run& run) {
  std::vector<double> load_ms[4];
  std::vector<double> net_wait;
  std::int64_t loads = 0, sim_events = 0;
  CounterTally tally;
  double untraced_s = 0, traced_s = 0;

  for (const bool traced : {false, true}) {
    obs::reset_phase_profile();
    obs::set_profiling_enabled(!traced);
    std::vector<harness::CorpusResult> results;
    for (std::size_t c = 0; c < in.plan.cells.size(); ++c) {
      const fleet::SweepCell& cell = in.plan.cells[c];
      harness::RunOptions opt = cell.options;
      if (traced) {
        opt.trace_sink = [&tally](const trace::Recorder& r) { tally.add(r); };
      }
      harness::CorpusResult& out = results.emplace_back();
      for (const web::PageModel& page : cell.corpus->pages()) {
        std::vector<browser::LoadResult> runs;
        for (int l = 0; l < opt.loads_per_page; ++l) {
          const std::uint64_t nonce =
              harness::derive_load_nonce(opt.seed, page.page_id(), l);
          const double t0 = now_seconds();
          runs.push_back(
              harness::run_page_load(page, cell.strategy, opt, nonce));
          const double s = now_seconds() - t0;
          (traced ? traced_s : untraced_s) += s;
          if (traced) continue;
          load_ms[static_cast<int>(in.cells[c].family)].push_back(1e3 * s);
          net_wait.push_back(runs.back().net_wait_fraction());
          sim_events += runs.back().sim_events;
          ++loads;
        }
        out.loads.push_back(harness::select_median_load(std::move(runs)));
      }
    }
    obs::set_profiling_enabled(false);
    if (!traced) {
      run.checks.expect_same_digest(
          "serial untraced pass reproduces the timed pass", timed.digest,
          digest_of(results));
      report_phases(obs::collect_phase_profile(), loads, sim_events, run);
      continue;
    }
    std::uint64_t traced_digest = digest_of(results);
    if (args.inject_digest_mismatch) traced_digest ^= 1;
    run.checks.expect_same_digest(
        "serial traced pass reproduces the timed pass", timed.digest,
        traced_digest);
  }

  run.layer("fleet.utilization", median(timed.utilization), "ratio");
  run.layer("harness.load_ms.vroom",
            median(load_ms[static_cast<int>(Family::Vroom)]), "ms");
  run.layer("harness.load_ms.http2",
            median(load_ms[static_cast<int>(Family::Http2)]), "ms");
  run.layer("harness.load_ms.http11",
            median(load_ms[static_cast<int>(Family::Http11)]), "ms");
  run.layer("browser.net_wait_frac", mean(net_wait), "ratio");
  report_tally(tally, run);
  run.layer("trace.overhead_frac",
            untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio");

  std::vector<const web::Corpus*> corpora;
  for (const auto& c : in.corpora) corpora.push_back(c.get());
  probe_layer_calls(corpora, in.bulk_profile, run);

  run.idle_layer("cache.hit_frac", "ratio");
  for (const char* name :
       {"deploy.micro_s", "deploy.warm_s", "deploy.macro_s"}) {
    run.idle_layer(name, "s");
  }
  run.idle_layer("deploy.population_ms", "ms");
  for (const char* name :
       {"deploy.fe_hit_ratio", "deploy.stale_frac", "deploy.hintless_frac",
        "deploy.max_link_utilization"}) {
    run.idle_layer(name, "ratio");
  }
  run.idle_layer("deploy.fe_wait_ms", "ms");
  run.idle_layer("deploy.origin_wait_ms", "ms");
}

void run_plan_workload(PlanInputs (*make)(std::uint64_t), const Args& args,
                       Run& run) {
  PlanInputs in;
  const double setup_s =
      median_seconds(kSetupReps, [&] { in = make(args.seed); });
  const TimedPass timed = timed_pass(in, args.seconds, run.checks);
  report_end_to_end(in, timed, setup_s, run);
  if (args.trace) traced_pass(in, timed, args, run);
}

}  // namespace

void run_headline_lte(const Args& args, Run& run) {
  run_plan_workload(headline_inputs, args, run);
}

void run_lossy_3g(const Args& args, Run& run) {
  run_plan_workload(lossy_inputs, args, run);
}

}  // namespace vroom::vbench
