#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/event_loop.h"
#include "sim/fifo.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vroom::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(ms(1), 1000);
  EXPECT_EQ(seconds(1), 1'000'000);
  EXPECT_EQ(hours(1), 3'600'000'000LL);
  EXPECT_EQ(days(2), 2 * 86'400'000'000LL);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_EQ(from_seconds(1.5), 1'500'000);
  EXPECT_EQ(from_seconds(0.0000005), 1);  // rounds to nearest microsecond
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(ms(30), [&] { order.push_back(3); });
  loop.schedule_at(ms(10), [&] { order.push_back(1); });
  loop.schedule_at(ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), ms(30));
}

TEST(EventLoopTest, SimultaneousEventsRunInInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(ms(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleInIsRelative) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(ms(10), [&] {
    loop.schedule_in(ms(25), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, ms(35));
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  Time fired = -1;
  loop.schedule_at(ms(10), [&] {
    loop.schedule_at(ms(1), [&] { fired = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired, ms(10));
}

TEST(EventLoopTest, CancelDropsCallback) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule_at(ms(10), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, RunUntilStopsEarly) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(ms(10), [&] { ++count; });
  loop.schedule_at(ms(50), [&] { ++count; });
  loop.run(ms(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) loop.schedule_in(ms(1), chain);
  };
  loop.schedule_in(ms(1), chain);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), ms(100));
}

TEST(RandomTest, DeterministicPerSeed) {
  Rng a(123, "x"), b(123, "x"), c(123, "y");
  const double va = a.uniform(), vb = b.uniform(), vc = c.uniform();
  EXPECT_DOUBLE_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(RandomTest, DeriveSeedDecorrelatesPurposes) {
  EXPECT_NE(derive_seed(1, "a"), derive_seed(1, "b"));
  EXPECT_NE(derive_seed(1, "a"), derive_seed(2, "a"));
  EXPECT_EQ(derive_seed(7, "p"), derive_seed(7, "p"));
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(99, "t");
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RandomTest, LognormalMedianApproximatelyCorrect) {
  Rng rng(4, "ln");
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.lognormal(1000, 0.8));
  std::sort(v.begin(), v.end());
  const double med = v[v.size() / 2];
  EXPECT_NEAR(med, 1000, 60);
}

TEST(RandomTest, ChanceExtremes) {
  Rng rng(5, "c");
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RandomTest, WeightedRespectsZeroWeight) {
  Rng rng(6, "w");
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RandomTest, ParetoIsCapped) {
  Rng rng(7, "p");
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.pareto(10, 1.2, 500);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 500);
  }
}

// sim::Fifo against std::deque over a seeded mix of pushes and pops: front-
// relative indexing and order survive rewinds and compactions.
TEST(FifoTest, MatchesDequeAcrossRewindAndCompaction) {
  Fifo<int> fifo;
  std::deque<int> oracle;
  Rng rng(7);
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Phases of filling and draining, so the queue both empties (rewind)
    // and wraps a consumed prefix (compaction).
    const bool fill = (step / 500) % 2 == 0;
    if (oracle.empty() || rng.chance(fill ? 0.7 : 0.3)) {
      fifo.push_back(next);
      oracle.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.front(), oracle.front());
      fifo.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(fifo.size(), oracle.size());
    ASSERT_EQ(fifo.empty(), oracle.empty());
    if (!oracle.empty()) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(oracle.size()) - 1));
      ASSERT_EQ(fifo[i], oracle[i]);
    }
  }
}

}  // namespace
}  // namespace vroom::sim
