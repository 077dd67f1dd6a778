// Per-load arena (sim/arena.h): bump allocation, reset-and-reuse semantics,
// the thread-local pool protocol, the block recycler behind the network
// layer's per-load storage, and — the property everything else rides
// on — that a world rebuilt on a reset arena is indistinguishable from one
// built on a fresh arena (interner ids restart at 0, per-load tables start
// empty, traced event streams are bit-identical).
#include "sim/arena.h"

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/strategies.h"
#include "harness/experiment.h"
#include "scoped_env.h"
#include "trace/trace.h"
#include "web/intern.h"
#include "web/page_generator.h"
#include "web/page_instance.h"

namespace vroom {
namespace {

using testutil::ScopedEnv;

TEST(Arena, BumpAllocatesAlignedAndTracksUsage) {
  sim::Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.chunk_count(), 0u);

  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  // 3 bytes, then padding up to the 8-byte boundary, then 8 bytes.
  EXPECT_EQ(arena.bytes_used(), 16u);
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_GE(arena.bytes_reserved(), sim::Arena::kDefaultChunkBytes);
}

TEST(Arena, CopyStringIsStableAndNulTerminated) {
  sim::Arena arena;
  const std::string original = "a.example/p1/r0v2u0.html";
  const std::string_view copy = arena.copy_string(original);
  EXPECT_EQ(copy, original);
  EXPECT_NE(copy.data(), original.data());
  EXPECT_EQ(copy.data()[copy.size()], '\0');

  // Chunk growth must not move earlier copies (index maps hold views).
  const char* before = copy.data();
  for (int i = 0; i < 10000; ++i) {
    arena.copy_string("filler.example/p1/r1v1u0.css");
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_EQ(copy.data(), before);
  EXPECT_EQ(copy, original);
}

TEST(Arena, OversizedAllocationGetsItsOwnChunk) {
  sim::Arena arena(64);  // tiny first chunk
  void* big = arena.allocate(1 << 20, alignof(std::max_align_t));
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 20);
  std::memset(big, 0xab, 1 << 20);  // the whole block is really writable
}

TEST(Arena, ResetRewindsButKeepsChunks) {
  sim::Arena arena;
  void* first = arena.allocate(64, alignof(std::max_align_t));
  for (int i = 0; i < 5000; ++i) arena.copy_string("x.example/p1/r2v3u0.js");
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t chunks = arena.chunk_count();
  ASSERT_GT(arena.bytes_used(), 0u);

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // memory kept...
  EXPECT_EQ(arena.chunk_count(), chunks);
  // ...and the next load's first allocation reuses the first chunk.
  void* again = arena.allocate(64, alignof(std::max_align_t));
  EXPECT_EQ(again, first);
}

TEST(Arena, PmrContainersAllocateFromArena) {
  sim::Arena arena;
  {
    std::pmr::vector<std::uint64_t> v(&arena);
    for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GE(arena.bytes_used(), 1000 * sizeof(std::uint64_t));
    EXPECT_EQ(v[999], 999u);
  }
  // Destruction deallocates nothing (bump arena): usage is monotone until
  // reset.
  EXPECT_GT(arena.bytes_used(), 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(PooledArena, ConsecutiveAcquisitionsReuseResetStorage) {
  const sim::Arena* seen = nullptr;
  std::size_t reserved = 0;
  {
    sim::PooledArena a;
    a->allocate(1024, 8);
    seen = a.get();
    reserved = a->bytes_reserved();
    EXPECT_GT(a->bytes_used(), 0u);
  }
  {
    sim::PooledArena b;
    // Same thread, no live holder => the pool hands back the same arena,
    // already reset but with its chunks intact.
    EXPECT_EQ(b.get(), seen);
    EXPECT_EQ(b->bytes_used(), 0u);
    EXPECT_EQ(b->bytes_reserved(), reserved);
  }
}

TEST(PooledArena, NestedAcquisitionIsReentrant) {
  sim::PooledArena outer;
  outer->allocate(64, 8);
  {
    // A nested world (offline resolver inside a live load) must get its own
    // arena — resetting the outer one mid-load would be fatal.
    sim::PooledArena inner;
    EXPECT_NE(inner.get(), outer.get());
    inner->allocate(64, 8);
  }
  EXPECT_GT(outer->bytes_used(), 0u);  // inner's release didn't touch outer
}

TEST(PooledArena, ThreadsGetIndependentArenas) {
  // TSAN companion to the fleet suite: concurrent acquire/allocate/release
  // on many threads must not race (the pool is thread-local).
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        sim::PooledArena arena;
        std::pmr::vector<int> v(arena.get());
        for (int j = 0; j < 256; ++j) v.push_back(j);
        ASSERT_EQ(v.back(), 255);
      }
    });
  }
  for (auto& th : threads) th.join();
}

// Counts the calls a RecyclingResource passes on to the heap.
class CountingResource final : public std::pmr::memory_resource {
 public:
  int allocations = 0;
  int deallocations = 0;

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    ++allocations;
    return std::pmr::new_delete_resource()->allocate(bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override {
    ++deallocations;
    std::pmr::new_delete_resource()->deallocate(p, bytes, align);
  }
  bool do_is_equal(const std::pmr::memory_resource& other)
      const noexcept override {
    return this == &other;
  }
};

TEST(RecyclingResource, ReusesFreedBlocksBySizeClass) {
  CountingResource heap;
  {
    sim::RecyclingResource recycler(&heap);
    void* a = recycler.allocate(100, 8);
    recycler.deallocate(a, 100, 8);
    // 100 and 128 bytes share the 128-byte class: the freed block returns.
    void* b = recycler.allocate(128, 16);
    EXPECT_EQ(b, a);
    // While it is out, the class is empty and the heap serves the next.
    void* c = recycler.allocate(65, 8);
    EXPECT_NE(c, a);
    EXPECT_EQ(heap.allocations, 2);
    // Another class never takes it.
    recycler.deallocate(b, 128, 16);
    void* d = recycler.allocate(129, 8);
    EXPECT_NE(d, a);
    EXPECT_EQ(heap.allocations, 3);
    recycler.deallocate(c, 65, 8);
    recycler.deallocate(d, 129, 8);
    EXPECT_EQ(heap.deallocations, 0);
  }
  // Every free block goes back to the heap with the recycler.
  EXPECT_EQ(heap.deallocations, 3);
}

TEST(RecyclingResource, RegrowingContainerTakesBackItsBuffers) {
  CountingResource heap;
  sim::RecyclingResource recycler(&heap);
  // The second vector grows through the sizes the first one freed.
  for (int pass = 0; pass < 2; ++pass) {
    std::pmr::vector<std::uint64_t> v(&recycler);
    for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
  }
  EXPECT_EQ(heap.allocations, 11);  // capacities 1, 2, 4, ..., 1024
  EXPECT_EQ(heap.deallocations, 0);
}

TEST(RecyclingResource, LargeAndOverAlignedBlocksBypassTheFreeLists) {
  CountingResource heap;
  sim::RecyclingResource recycler(&heap);
  constexpr std::size_t kLarge = sim::RecyclingResource::kMaxBlock + 1;
  void* big = recycler.allocate(kLarge, 8);
  recycler.deallocate(big, kLarge, 8);
  void* aligned = recycler.allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 64, 0u);
  recycler.deallocate(aligned, 64, 64);
  EXPECT_EQ(heap.allocations, 2);
  EXPECT_EQ(heap.deallocations, 2);
}

// The reset-reuse contract: a world rebuilt on a reset arena behaves exactly
// like one built on a fresh arena.
TEST(ArenaWorld, ResetArenaWorldIndistinguishableFromFresh) {
  const web::PageModel page = web::generate_page(42, 5, web::PageClass::News);
  web::LoadIdentity id;
  id.wall_time = sim::hours(1000);
  id.nonce = 7;

  sim::Arena arena;
  std::vector<std::string> first_urls;
  {
    web::Interner in(&arena);
    EXPECT_EQ(in.url_id("a.example/p1/r0v2u0.html"), 0u);
    EXPECT_EQ(in.url_id("b.example/p1/r1v7u0.css"), 1u);
    const web::PageInstance inst(page, id, &arena);
    for (const auto& r : inst.resources()) first_urls.emplace_back(r.url);
    ASSERT_FALSE(first_urls.empty());
  }
  arena.reset();
  {
    // Ids restart at 0; realization is identical.
    web::Interner in(&arena);
    EXPECT_EQ(in.url_count(), 0u);
    EXPECT_EQ(in.url_id("a.example/p1/r0v2u0.html"), 0u);
    const web::PageInstance inst(page, id, &arena);
    ASSERT_EQ(inst.size(), first_urls.size());
    for (std::uint32_t i = 0; i < inst.size(); ++i) {
      EXPECT_EQ(inst.resource(i).url, first_urls[i]);
      EXPECT_EQ(inst.resource(i).url_id, i);
    }
    // Fresh tables: nothing leaked across the reset.
    EXPECT_EQ(inst.find_by_url("ghost.example/p9/r99v1u0.js"), std::nullopt);
  }
}

// Same load run twice on one thread: the second run's world is rebuilt
// inside the chunks the first grew (PooledArena reuse in run_page_load),
// and the traced event stream — every timestamp, name, and arg — must be
// bit-identical. This is the whole-system version of the test above, and
// mirrors the PooledEventLoop reset tests.
TEST(ArenaWorld, TracedStreamsIdenticalAcrossPooledReuse) {
  ScopedEnv trace_env("VROOM_TRACE", nullptr);
  const web::PageModel page = web::generate_page(42, 4, web::PageClass::News);

  auto traced_load = [&page](std::string* json) {
    harness::RunOptions opt;
    opt.seed = 42;
    opt.trace_sink = [json](const trace::Recorder& r) {
      *json = r.chrome_trace_json();
    };
    return harness::run_page_load(page, baselines::vroom(), opt, 1);
  };

  std::string first, warm1, warm2;
  const auto r0 = traced_load(&first);  // grows the pooled arena
  const auto r1 = traced_load(&warm1);  // rebuilt in reused chunks
  const auto r2 = traced_load(&warm2);
  EXPECT_TRUE(r0.finished);
  EXPECT_EQ(r0.plt, r1.plt);
  EXPECT_EQ(r1.plt, r2.plt);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, warm1);
  EXPECT_EQ(warm1, warm2);
}

}  // namespace
}  // namespace vroom
