// Allocation budget of the per-load data path (DESIGN.md §10).
//
// This binary replaces the global operator new with a counting one, so it
// sees every allocation the simulator makes through the standard library.
// It pins two properties:
//   * a TcpConnection's allocations do not grow with the number of segments
//     it carries (flat stream storage, index FIFOs, SmallFn callbacks);
//   * a pooled page load, once its worker's event loop and arena have grown,
//     stays within the allocation budget measured when the HTTP, TCP and
//     task-queue layers were made allocation-light.
// Every operator new and delete form is replaced, all on malloc/free, so
// sanitizer builds see matching allocation and deallocation calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "net/tcp.h"
#include "scoped_env.h"
#include "web/corpus.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    bytes = (bytes + align - 1) / align * align;
    p = std::aligned_alloc(align, bytes);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t bytes, std::size_t align) {
  void* p = counted_alloc(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n, kPlain); }
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kPlain);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vroom {
namespace {

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Allocations made by one bulk transfer of `bytes` over a fresh connection,
// event loop and network, counted from before any of them exists.
std::int64_t bulk_transfer_allocations(std::int64_t bytes) {
  const std::int64_t before = allocations();
  {
    sim::EventLoop loop;
    net::Network net(loop, net::NetworkConfig::lte(), 7);
    net.set_rtt("a.com", sim::ms(100));
    net::TcpConnection conn(net, "a.com", false);
    bool delivered = false;
    conn.connect([&] {
      net::TcpConnection::Chunk c;
      c.bytes = bytes;
      c.on_delivered = [&] { delivered = true; };
      conn.send_chunk(std::move(c));
    });
    loop.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(conn.bytes_delivered(), bytes);
  }
  return allocations() - before;
}

TEST(Allocations, TcpBulkTransferCountDoesNotGrowWithSegments) {
  // 1,370 against 5,480 segments: the stream, ledger and link queues reuse
  // buffers sized by the window, not by the transfer.
  const std::int64_t small = bulk_transfer_allocations(2'000'000);
  const std::int64_t large = bulk_transfer_allocations(8'000'000);
  std::printf("[ alloc    ] TcpConnection bulk: 2 MB %lld, 8 MB %lld\n",
              static_cast<long long>(small), static_cast<long long>(large));
  EXPECT_EQ(small, large);
}

// Allocations of the second of two identical run_page_load calls on this
// thread: the first grows the pooled event loop and arena.
std::int64_t warm_load_allocations(const web::PageModel& page,
                                   const baselines::Strategy& strategy) {
  harness::RunOptions opt;
  opt.seed = 42;
  const std::uint64_t nonce =
      harness::derive_load_nonce(opt.seed, page.page_id(), 0);
  const browser::LoadResult cold =
      harness::run_page_load(page, strategy, opt, nonce);
  EXPECT_TRUE(cold.finished);
  const std::int64_t before = allocations();
  const browser::LoadResult warm =
      harness::run_page_load(page, strategy, opt, nonce);
  const std::int64_t count = allocations() - before;
  EXPECT_EQ(warm.plt, cold.plt);
  return count;
}

TEST(Allocations, WarmPageLoadStaysWithinBudget) {
  testutil::ScopedEnv trace("VROOM_TRACE", nullptr);
  testutil::ScopedEnv profile("VROOM_PROFILE", nullptr);
  const web::Corpus corpus = web::Corpus::news_sports(42);
  const web::PageModel& page = corpus.pages().front();
  // The counts measured once the HTTP, TCP and task-queue layers stopped
  // allocating per request, segment and task; the budget is that plus 10%.
  // What remains is per resource (request URL strings, the escaping
  // ResourceTiming rows), the network's recycled buffers (each taken from
  // the heap once per load), or Vroom's server-side resolution.
  struct Case {
    baselines::Strategy strategy;
    std::int64_t measured;
  };
  const Case cases[] = {
      {baselines::vroom(), 2535},          // 8,518 before
      {baselines::http2_baseline(), 699},  // 6,522 before
      {baselines::http11(), 1077},         // 5,187 before
  };
  for (const Case& c : cases) {
    const std::int64_t count = warm_load_allocations(page, c.strategy);
    std::printf("[ alloc    ] %s page %u: %lld allocations\n",
                c.strategy.name.c_str(), page.page_id(),
                static_cast<long long>(count));
    EXPECT_LE(count, c.measured + c.measured / 10) << c.strategy.name;
  }
}

}  // namespace
}  // namespace vroom
