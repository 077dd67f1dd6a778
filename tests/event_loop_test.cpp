// Regression tests for the EventLoop rework: O(1) idempotent cancellation,
// correct pending()/empty() accounting under pathological cancels (the seed
// implementation corrupted both when cancelling fired, doubly-cancelled, or
// default-constructed ids), storage reuse via reset()/PooledEventLoop, the
// (time, scheduling time, seq) order key with its keyed-scheduling entry
// points, and the SmallFn small-buffer callable the slab stores.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_loop.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace vroom::sim {
namespace {

TEST(EventLoopCancelTest, CancelAfterFireIsANoOp) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule_at(ms(10), [&] { ran = true; });
  loop.schedule_at(ms(20), [] {});
  EXPECT_TRUE(loop.step());  // fires the ms(10) event
  EXPECT_TRUE(ran);

  loop.cancel(id);  // already fired: must not disturb accounting
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopCancelTest, DoubleCancelIsIdempotent) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule_at(ms(10), [&] { ran = true; });
  loop.schedule_at(ms(20), [] {});
  EXPECT_EQ(loop.pending(), 2u);

  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(id);  // second cancel of the same id: no-op
  loop.cancel(id);  // and a third
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());

  EXPECT_EQ(loop.run(), 1u);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopCancelTest, CancelDefaultIdIsANoOp) {
  EventLoop loop;
  loop.schedule_at(ms(10), [] {});
  loop.cancel(EventId{});
  loop.cancel(EventId{});
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopCancelTest, CancelledSlotReuseDoesNotCancelNewEvent) {
  EventLoop loop;
  bool first = false, second = false;
  EventId id = loop.schedule_at(ms(10), [&] { first = true; });
  loop.cancel(id);
  // The slab slot is recycled for the next event; the stale id's generation
  // no longer matches, so cancelling it again must not kill the new event.
  EventId id2 = loop.schedule_at(ms(20), [&] { second = true; });
  (void)id2;
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventLoopCancelTest, ManyCancelsKeepOrderingDeterministic) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(loop.schedule_at(ms(10 + i % 3), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < 100; i += 2) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending(), 50u);
  loop.run();
  // Survivors fire in (time, insertion-seq) order.
  std::vector<int> expected;
  for (int t = 0; t < 3; ++t) {
    for (int i = 1; i < 100; i += 2) {
      if (i % 3 == t) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(EventLoopResetTest, ResetRestoresFreshState) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(ms(10), [&] { ++count; });
  loop.schedule_at(ms(20), [&] { ++count; });
  loop.run();
  EXPECT_EQ(loop.now(), ms(20));

  loop.reset();
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.recorder(), nullptr);

  // A reset loop behaves exactly like a fresh one, ordering included.
  std::vector<int> order;
  loop.schedule_at(ms(5), [&] { order.push_back(1); });
  loop.schedule_at(ms(5), [&] { order.push_back(2); });
  loop.schedule_at(ms(1), [&] { order.push_back(0); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopResetTest, ResetDropsUnfiredCallbacks) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  loop.schedule_at(ms(10), [keep = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  loop.reset();
  EXPECT_TRUE(watch.expired());  // slab released the closure
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopResetTest, PooledLoopReuseIsTransparent) {
  // Two consecutive pooled loops on one thread share storage; the second
  // must still start from a pristine state.
  {
    PooledEventLoop pooled;
    pooled->schedule_at(ms(100), [] {});
    pooled->run();
    EXPECT_EQ(pooled->now(), ms(100));
  }
  {
    PooledEventLoop pooled;
    EXPECT_EQ(pooled->now(), 0);
    EXPECT_TRUE(pooled->empty());
    int fired = 0;
    pooled->schedule_at(ms(1), [&] { ++fired; });
    EXPECT_EQ(pooled->run(), 1u);
    EXPECT_EQ(fired, 1);
  }
}

TEST(EventLoopOrderTest, ScheduleAtKeepsTimeThenInsertionOrder) {
  // The (time, scheduling time, seq) key orders ordinary events exactly as
  // (time, seq): seqs are drawn in execution order.
  EventLoop loop;
  std::vector<char> order;
  loop.schedule_at(ms(10), [&] {
    order.push_back('A');
    loop.schedule_at(ms(20), [&] { order.push_back('D'); });
    loop.schedule_at(ms(10), [&] { order.push_back('E'); });
  });
  loop.schedule_at(ms(20), [&] { order.push_back('B'); });
  loop.schedule_at(ms(10), [&] { order.push_back('C'); });
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'E', 'B', 'D'}));
}

TEST(EventLoopOrderTest, KeyedEventRunsWhereItsSkippedParentWouldPutIt) {
  // An event keyed {15ms, 5ms, seq reserved at 0} runs as if something at
  // 5ms scheduled it before any other 5ms event ran: after every 15ms event
  // scheduled earlier than 5ms, before every one scheduled at 5ms.
  EventLoop loop;
  std::vector<std::string> order;
  const std::uint64_t reserved = loop.reserve_seq();
  loop.schedule_at(ms(5), [&] {
    order.push_back("x@5");
    loop.schedule_at(ms(15), [&] { order.push_back("y@15 from 5"); });
  });
  loop.schedule_at(ms(15), [&] { order.push_back("z@15 from 0"); });
  loop.schedule_at(ms(1), [&] {
    loop.schedule_keyed(EventKey{ms(15), ms(5), reserved},
                        [&] { order.push_back("keyed@15 from 5"); });
  });
  EXPECT_EQ(loop.run(), 5u);
  EXPECT_EQ(order, (std::vector<std::string>{"x@5", "z@15 from 0",
                                             "keyed@15 from 5",
                                             "y@15 from 5"}));
}

TEST(EventLoopOrderTest, BeforeRunningComparesWithTheRunningKey) {
  EventLoop loop;
  EXPECT_FALSE(loop.before_running(EventKey{0, 0, 1}));  // nothing ran yet
  loop.schedule_at(ms(10), [&] {
    EXPECT_TRUE(loop.before_running(EventKey{ms(9), ms(9), 1000}));
    EXPECT_TRUE(loop.before_running(EventKey{ms(10), 0, 0}));
    EXPECT_FALSE(loop.before_running(EventKey{ms(10), ms(10), 0}));
    EXPECT_FALSE(loop.before_running(EventKey{ms(11), 0, 0}));
  });
  loop.schedule_at(ms(40), [] {});
  // Stopping at `until` means everything up to it has run.
  EXPECT_EQ(loop.run(ms(30)), 1u);
  EXPECT_TRUE(loop.before_running(EventKey{ms(30), ms(30), 1000}));
  EXPECT_FALSE(loop.before_running(EventKey{ms(31), 0, 0}));
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_TRUE(loop.before_running(EventKey{kNever - 1, 0, 0}));
  loop.reset();
  EXPECT_FALSE(loop.before_running(EventKey{0, 0, 1}));
}

TEST(EventLoopOrderTest, CancelledKeyedEventCanBeRearmedOnce) {
  // A layer may cancel a keyed event and re-arm it under the same key; the
  // stale id must neither fire nor kill the re-armed event.
  EventLoop loop;
  int fired = 0;
  const EventKey key{ms(10), 0, loop.reserve_seq()};
  const EventId first = loop.schedule_keyed(key, [&] { ++fired; });
  loop.cancel(first);
  EXPECT_EQ(loop.pending(), 0u);
  loop.schedule_keyed(key, [&] { ++fired; });
  loop.cancel(first);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SmallFnTest, InlineAndHeapClosuresInvoke) {
  int hits = 0;
  SmallFn small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // Oversized capture forces the heap fallback.
  struct Big {
    std::uint64_t pad[16];
  };
  Big big{};
  big.pad[0] = 41;
  SmallFn large([big, &hits] { hits += static_cast<int>(big.pad[0]); });
  large();
  EXPECT_EQ(hits, 42);
}

TEST(SmallFnTest, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  SmallFn a([keep = std::move(token)] {});
  SmallFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_FALSE(watch.expired());
  b.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFnTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<std::string>("payload");
  std::string got;
  SmallFn fn([p = std::move(owned), &got] { got = *p; });
  fn();
  EXPECT_EQ(got, "payload");
}

}  // namespace
}  // namespace vroom::sim
