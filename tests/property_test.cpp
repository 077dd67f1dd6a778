// Parameterized property tests: invariants that must hold across the whole
// parameter space, not just hand-picked examples.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "baselines/strategies.h"
#include "core/accuracy.h"
#include "harness/experiment.h"
#include "net/tcp.h"
#include "web/page_generator.h"
#include "web/page_instance.h"

namespace vroom {
namespace {

// ---------- page-generator invariants across classes and seeds ----------

using GenParam = std::tuple<web::PageClass, std::uint64_t>;

class GeneratorProperty : public ::testing::TestWithParam<GenParam> {
 protected:
  GeneratorProperty()
      : page_(web::generate_page(std::get<1>(GetParam()), 11,
                                 std::get<0>(GetParam()))) {}
  web::PageModel page_;
};

TEST_P(GeneratorProperty, StructuralInvariants) {
  ASSERT_GT(page_.size(), 10u);
  EXPECT_EQ(page_.root().parent, -1);
  EXPECT_EQ(page_.root().type, web::ResourceType::Html);
  for (const web::Resource& r : page_.resources()) {
    if (r.id != 0) {
      ASSERT_GE(r.parent, 0);
      EXPECT_LT(static_cast<std::uint32_t>(r.parent), r.id);
    }
    EXPECT_GE(r.discovery_offset, 0.0);
    EXPECT_LE(r.discovery_offset, 1.0);
    EXPECT_GT(r.base_size, 0);
    EXPECT_FALSE(r.domain.empty());
    if (r.volatility != web::Volatility::PerLoad) {
      EXPECT_GT(r.rotation_period, 0);
    }
    // Parser-blocking implies a synchronous classic script.
    if (r.blocks_parser) {
      EXPECT_EQ(r.type, web::ResourceType::Js);
      EXPECT_FALSE(r.async);
    }
    // Iframe containment is hereditary.
    if (r.parent >= 0 &&
        page_.resource(static_cast<std::uint32_t>(r.parent)).in_iframe) {
      EXPECT_TRUE(r.in_iframe);
    }
    // post-onload markers only on JS-injected iframe documents.
    if (r.post_onload) {
      EXPECT_TRUE(r.is_iframe_doc);
    }
  }
}

TEST_P(GeneratorProperty, VolatilityMixSane) {
  int per_load = 0, total = 0;
  for (const web::Resource& r : page_.resources()) {
    ++total;
    if (r.volatility == web::Volatility::PerLoad) ++per_load;
  }
  const double frac = static_cast<double>(per_load) / total;
  EXPECT_GT(frac, 0.02);
  EXPECT_LT(frac, 0.45);
}

TEST_P(GeneratorProperty, HintScopeOrderingIsTopological) {
  const auto scope = page_.hintable_descendants(0);
  std::set<std::uint32_t> seen{0};
  for (std::uint32_t id : scope) {
    EXPECT_TRUE(seen.count(static_cast<std::uint32_t>(
        page_.resource(id).parent)));
    seen.insert(id);
  }
}

TEST_P(GeneratorProperty, InstancesDeterministicAndNonceSensitive) {
  web::LoadIdentity id;
  id.wall_time = sim::days(45);
  id.device = web::nexus6();
  id.user = 2;
  id.nonce = 5;
  const web::PageInstance a(page_, id), b(page_, id);
  web::LoadIdentity id2 = id;
  id2.nonce = 6;
  const web::PageInstance c(page_, id2);
  int diffs = 0;
  for (std::size_t i = 0; i < page_.size(); ++i) {
    EXPECT_EQ(a.resource(i).url, b.resource(i).url);
    if (a.resource(i).url != c.resource(i).url) ++diffs;
  }
  EXPECT_GT(diffs, 0);  // some per-load churn on every page class
}

TEST_P(GeneratorProperty, PersistenceMonotoneInGap) {
  const double h = core::persistence_fraction(page_, sim::days(45),
                                              web::nexus6(), 1, sim::hours(1));
  const double d = core::persistence_fraction(page_, sim::days(45),
                                              web::nexus6(), 1, sim::days(1));
  const double w = core::persistence_fraction(page_, sim::days(45),
                                              web::nexus6(), 1, sim::days(7));
  EXPECT_GE(h, d - 1e-9);
  EXPECT_GE(d, w - 1e-9);
  EXPECT_GE(w, 0.0);
  EXPECT_LE(h, 1.0);
}

TEST_P(GeneratorProperty, AccuracyDominanceHoldsEverywhere) {
  // Vroom's resolution (offline + online) can only add correct URLs on top
  // of offline-only, so its false-negative rate must never be worse.
  const auto vroom =
      core::measure_accuracy(page_, sim::days(45), web::nexus6(), 1,
                             core::ResolutionMode::OfflinePlusOnline, {});
  const auto offline =
      core::measure_accuracy(page_, sim::days(45), web::nexus6(), 1,
                             core::ResolutionMode::OfflineOnly, {});
  EXPECT_LE(vroom.false_negative_frac, offline.false_negative_frac + 1e-9);
  EXPECT_GE(vroom.predictable_count_frac, 0.0);
  EXPECT_LE(vroom.predictable_count_frac, 1.0);
  EXPECT_GE(vroom.predictable_bytes_frac, 0.0);
  EXPECT_LE(vroom.predictable_bytes_frac, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllClassesAndSeeds, GeneratorProperty,
    ::testing::Combine(::testing::Values(web::PageClass::Top100,
                                         web::PageClass::News,
                                         web::PageClass::Sports,
                                         web::PageClass::Mixed400),
                       ::testing::Values(1ull, 42ull, 1337ull)),
    [](const auto& info) {
      return std::string(web::page_class_name(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------- TCP transfer properties across sizes ----------

class TcpProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TcpProperty, LargerTransfersNeverFinishEarlier) {
  auto time_for = [&](std::int64_t bytes) {
    sim::EventLoop loop;
    net::Network net(loop, net::NetworkConfig::lte(), 3);
    net.set_rtt("a.com", sim::ms(120));
    net::TcpConnection conn(net, "a.com", false);
    sim::Time done = -1;
    conn.connect([&] {
      net::TcpConnection::Chunk c;
      c.bytes = bytes;
      c.on_delivered = [&] { done = loop.now(); };
      conn.send_chunk(std::move(c));
    });
    loop.run();
    return done;
  };
  const std::int64_t bytes = GetParam();
  EXPECT_LE(time_for(bytes), time_for(bytes * 2));
  EXPECT_LE(time_for(bytes), time_for(bytes + 1460));
}

TEST_P(TcpProperty, SplittingAcrossStreamsPreservesTotalBytes) {
  const std::int64_t bytes = GetParam();
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkConfig::lte(), 3);
  net.set_rtt("a.com", sim::ms(120));
  net::TcpConnection conn(net, "a.com", false,
                          net::WriterDiscipline::RoundRobin);
  int completions = 0;
  conn.connect([&] {
    for (std::uint32_t s = 0; s < 4; ++s) {
      net::TcpConnection::Chunk c;
      c.bytes = bytes / 4;
      c.on_delivered = [&] { ++completions; };
      conn.send_chunk(s, 0, std::move(c));
    }
  });
  loop.run();
  EXPECT_EQ(completions, 4);
  // Headers/payload conservation: what the client counted equals what was
  // sent (each chunk is at least one byte).
  EXPECT_EQ(conn.bytes_delivered(), (bytes / 4) * 4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpProperty,
                         ::testing::Values(1000, 14'600, 64'000, 300'000,
                                           1'000'000));

// ---------- every strategy finishes on every page class ----------

class StrategySweep
    : public ::testing::TestWithParam<std::tuple<int, web::PageClass>> {};

baselines::Strategy strategy_by_index(int i) {
  switch (i) {
    case 0: return baselines::http11();
    case 1: return baselines::http2_baseline();
    case 2: return baselines::push_all_static();
    case 3: return baselines::vroom();
    case 4: return baselines::vroom_first_party_only();
    case 5: return baselines::vroom_prev_load_deps();
    case 6: return baselines::vroom_offline_only();
    case 7: return baselines::vroom_online_only();
    case 8: return baselines::push_high_prio_no_hints();
    case 9: return baselines::push_all_no_hints();
    case 10: return baselines::push_all_fetch_asap();
    case 11: return baselines::polaris();
    case 12: return baselines::vroom_plus_polaris();
    case 13: return baselines::lower_bound_network();
    default: return baselines::lower_bound_cpu();
  }
}
constexpr int kNumStrategies = 15;

TEST_P(StrategySweep, LoadFinishesAndIsInternallyConsistent) {
  const auto [idx, cls] = GetParam();
  const baselines::Strategy s = strategy_by_index(idx);
  const web::PageModel page = web::generate_page(42, 5, cls);
  harness::RunOptions opt;
  auto r = harness::run_page_load(page, s, opt, 1);
  ASSERT_TRUE(r.finished) << s.name;
  EXPECT_GT(r.plt, 0);
  EXPECT_LE(r.aft, r.plt);
  EXPECT_GT(r.bytes_fetched, 0);
  EXPECT_GE(r.net_wait, 0);
  EXPECT_LE(r.net_wait, r.plt);
  EXPECT_LE(r.cpu_busy, r.plt);
  // Referenced gating resources are all complete and processed.
  for (const auto& t : r.timings) {
    if (!t.referenced || !t.template_id) continue;
    if (!page.resource(*t.template_id).blocks_onload) continue;
    EXPECT_NE(t.complete, sim::kNever) << s.name << " " << t.url;
    EXPECT_LE(t.complete, r.plt) << s.name << " " << t.url;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllClasses, StrategySweep,
    ::testing::Combine(::testing::Range(0, kNumStrategies),
                       ::testing::Values(web::PageClass::News,
                                         web::PageClass::Top100)),
    [](const auto& info) {
      return strategy_by_index(std::get<0>(info.param)).name.substr(0, 1) +
             std::to_string(std::get<0>(info.param)) + "_" +
             web::page_class_name(std::get<1>(info.param));
    });

// ---------- TCP delivery invariants over whole page loads ----------

baselines::Strategy delivery_strategy(int i) {
  switch (i) {
    case 0: return baselines::vroom();
    case 1: return baselines::http2_baseline();
    default: return baselines::http11();
  }
}

net::NetworkConfig delivery_network(int i) {
  switch (i) {
    case 0: return net::NetworkConfig::lte();
    case 1: {
      net::NetworkConfig lossy = net::NetworkConfig::lte();
      lossy.loss_rate = 0.01;
      return lossy;
    }
    default: return net::NetworkConfig::threeg();
  }
}

std::string delivery_case_name(const std::tuple<int, int>& param) {
  static const char* const kStrategies[] = {"vroom", "http2", "http11"};
  static const char* const kNetworks[] = {"lte", "lte_loss1pct", "3g"};
  return std::string(kStrategies[std::get<0>(param)]) + "_" +
         kNetworks[std::get<1>(param)];
}

class DeliveryProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeliveryProperty, ConnectionsConserveBytesAndChunksCompleteInOrder) {
  const auto [strategy_index, network_index] = GetParam();
  const baselines::Strategy s = delivery_strategy(strategy_index);
  harness::RunOptions opt;
  opt.network = delivery_network(network_index);
  for (std::uint32_t id = 0; id < 25; ++id) {
    const web::PageModel page =
        web::generate_page(42, id, web::PageClass::News);
    const std::uint64_t nonce = harness::derive_load_nonce(42, id, 0);
    net::DeliveryAudit audit;
    harness::RunOptions audited = opt;
    audited.delivery_audit = &audit;
    const auto r = harness::run_page_load(page, s, audited, nonce);
    ASSERT_TRUE(r.finished) << s.name << " page " << id;
    // Auditing observes; it must not change the load.
    EXPECT_EQ(r.plt, harness::run_page_load(page, s, opt, nonce).plt);
    ASSERT_FALSE(audit.connections.empty());
    for (std::size_t c = 0; c < audit.connections.size(); ++c) {
      const net::DeliveryAudit::Connection& conn = audit.connections[c];
      EXPECT_EQ(conn.bytes_delivered, conn.bytes_sent)
          << s.name << " page " << id << " connection " << c;
      EXPECT_EQ(conn.chunks_completed, conn.chunks)
          << s.name << " page " << id << " connection " << c;
      EXPECT_EQ(conn.misfires, 0)
          << s.name << " page " << id << " connection " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NewsSlice, DeliveryProperty,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3)),
    [](const auto& info) { return delivery_case_name(info.param); });

// ---------- determinism across the whole pipeline ----------

TEST(DeterminismProperty, IdenticalRunsIdenticalResults) {
  const web::PageModel page = web::generate_page(42, 9, web::PageClass::News);
  harness::RunOptions opt;
  for (const auto& s : {baselines::vroom(), baselines::http11(),
                        baselines::polaris()}) {
    auto a = harness::run_page_load(page, s, opt, 3);
    auto b = harness::run_page_load(page, s, opt, 3);
    EXPECT_EQ(a.plt, b.plt) << s.name;
    EXPECT_EQ(a.aft, b.aft) << s.name;
    EXPECT_EQ(a.bytes_fetched, b.bytes_fetched) << s.name;
    EXPECT_EQ(a.requests, b.requests) << s.name;
    EXPECT_EQ(a.wasted_bytes, b.wasted_bytes) << s.name;
  }
}

}  // namespace
}  // namespace vroom
