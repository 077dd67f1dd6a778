#include <chrono>
#include <cstdio>
#include <cstdint>

#include "core/offline_resolver.h"
#include "harness/experiment.h"
#include "net/tcp.h"
#include "sim/event_loop.h"
#include "vbench.h"
#include "web/page_generator.h"
#include "web/page_instance.h"

namespace vroom::vbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_rounds(const char* metric, const std::vector<double>& values) {
  std::printf("rounds %s:", metric);
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

void probe_layer_calls(const std::vector<const web::Corpus*>& corpora,
                       const net::NetworkConfig& bulk_profile, Run& run) {
  const harness::RunOptions defaults;
  std::vector<double> generate_s, instance_s, stable_set_s;
  for (const web::Corpus* corpus : corpora) {
    for (const web::PageModel& page : corpus->pages()) {
      double t0 = now_seconds();
      const web::PageModel again = web::generate_page(
          corpus->seed(), page.page_id(), page.page_class());
      generate_s.push_back(now_seconds() - t0);
      run.checks.expect(again.size() == page.size(),
                        "web.generate_page is deterministic for page " +
                            std::to_string(page.page_id()));

      web::LoadIdentity id;
      id.wall_time = defaults.when;
      id.device = defaults.device;
      id.user = defaults.user;
      id.nonce = harness::derive_load_nonce(corpus->seed(), page.page_id(), 0);
      t0 = now_seconds();
      {
        const web::PageInstance instance(page, id);
      }
      instance_s.push_back(now_seconds() - t0);

      // A fresh resolver per page: it memoizes, so reuse would time a
      // lookup instead of the resolution.
      t0 = now_seconds();
      {
        const core::OfflineResolver resolver(page, {});
        resolver.stable_set(defaults.when, defaults.device, page.first_party(),
                            defaults.user);
      }
      stable_set_s.push_back(now_seconds() - t0);
    }
  }
  run.layer("web.generate_page_ms", 1e3 * median(generate_s), "ms");
  run.layer("web.instance_ms", 1e3 * median(instance_s), "ms");
  run.layer("core.stable_set_ms", 1e3 * median(stable_set_s), "ms");

  constexpr std::int64_t kBulkBytes = 2'000'000;
  bool all_delivered = true;
  const double bulk_s = median_seconds(15, [&] {
    sim::EventLoop loop;
    net::Network net(loop, bulk_profile, 1);
    net::TcpConnection conn(net, "bulk.example", false);
    bool delivered = false;
    conn.connect([&] {
      net::TcpConnection::Chunk c;
      c.bytes = kBulkBytes;
      c.on_delivered = [&delivered] { delivered = true; };
      conn.send_chunk(std::move(c));
    });
    loop.run();
    all_delivered = all_delivered && delivered;
  });
  run.checks.expect(all_delivered, "net: 2 MB bulk transfer delivered");
  run.layer("net.tcp_bulk_ms", 1e3 * bulk_s, "ms");
}

void report_phases(const obs::PhaseProfile& profile, std::int64_t loads,
                   std::int64_t sim_events, Run& run) {
  const auto ms_per_load = [&](obs::Phase phase) {
    return loads > 0 ? 1e3 * profile.seconds[static_cast<int>(phase)] /
                           static_cast<double>(loads)
                     : 0.0;
  };
  run.layer("harness.world_build_ms", ms_per_load(obs::Phase::WorldBuild),
            "ms");
  run.layer("web.intern_ms", ms_per_load(obs::Phase::Intern), "ms");
  run.layer("sim.run_ms", ms_per_load(obs::Phase::Sim), "ms");
  run.layer("sim.events_per_load",
            loads > 0 ? static_cast<double>(sim_events) /
                            static_cast<double>(loads)
                      : 0.0,
            "count");
  const double sim_s = profile.seconds[static_cast<int>(obs::Phase::Sim)];
  run.layer("sim.events_per_s",
            sim_s > 0 ? static_cast<double>(sim_events) / sim_s : 0.0,
            "events/s");
}

void report_tally(const CounterTally& t, Run& run) {
  run.layer("net.trace_events_per_load", t.events_per_load(trace::Layer::Net),
            "count");
  run.layer("net.downlink_bytes_per_load", t.per_load("net.downlink_bytes"),
            "bytes");
  run.layer("net.connections_per_load", t.per_load("net.connections"),
            "count");
  run.layer("net.rto_events_per_load", t.per_load("net.rto_events"), "count");
  run.layer("net.downlink_max_queued_ms",
            static_cast<double>(t.max("net.downlink_max_queued_us")) / 1e3,
            "ms");

  run.layer("http.trace_events_per_load",
            t.events_per_load(trace::Layer::Http), "count");
  run.layer("http.h1_hol_wait_ms_per_load",
            t.per_load("http.h1_hol_wait_us") / 1e3, "ms");
  run.layer("http.h2_push_bytes_per_load", t.per_load("http.h2_push_bytes"),
            "bytes");

  run.layer("server.trace_events_per_load",
            t.events_per_load(trace::Layer::Server), "count");
  run.layer("server.hints_attached_per_load",
            t.per_load("server.hints_attached"), "count");
  run.layer("server.pushes_issued_per_load",
            t.per_load("server.pushes_issued"), "count");

  run.layer("browser.trace_events_per_load",
            t.events_per_load(trace::Layer::Browser), "count");
  run.layer("browser.tasks_per_load", t.per_load("browser.tasks_executed"),
            "count");
  run.layer("browser.parser_block_ms_per_load",
            t.per_load("browser.parser_block_us") / 1e3, "ms");
  run.layer("browser.push_useful_frac",
            useful_frac(t.total("browser.push_promises_accepted") -
                            t.total("browser.pushes_wasted"),
                        t.total("http.h2_push_promises")),
            "ratio");

  run.layer("vroom.trace_events_per_load",
            t.events_per_load(trace::Layer::Vroom), "count");
  run.layer("vroom.hint_useful_frac",
            useful_frac(t.total("vroom.hints_acted_on") -
                            t.total("browser.ghost_fetches"),
                        t.total("vroom.hints_acted_on")),
            "ratio");
}

}  // namespace vroom::vbench
