// Unit tests for the simulation core: event queue, simulator, resources,
// RNG, statistics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {
namespace {

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(usec(1), 1'000'000);
  EXPECT_EQ(msec(1), 1000 * usec(1));
  EXPECT_EQ(sec(1), 1000 * msec(1));
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_microseconds(usec(7)), 7.0);
  EXPECT_EQ(from_seconds(2.5), sec(2) + msec(500));
}

TEST(TimeUnits, TransferTimeExactAt10G) {
  // One byte at 10 Gb/s is exactly 800 ps.
  EXPECT_EQ(transfer_time(1, 10e9), 800);
  EXPECT_EQ(transfer_time(1500, 10e9), 1500 * 800);
}

TEST(TimeUnits, TransferTimeRoundsUp) {
  // 1 byte at 3 Gb/s = 2666.67 ps -> 2667.
  EXPECT_EQ(transfer_time(1, 3e9), 2667);
}

TEST(TimeUnits, RateComputation) {
  EXPECT_DOUBLE_EQ(rate_bps(1250, usec(1)), 10e9);
  EXPECT_DOUBLE_EQ(rate_bps(100, 0), 0.0);
}

TEST(InlineCallback, InvokesAndReportsEmpty) {
  InlineCallback empty;
  EXPECT_FALSE(empty);
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  EXPECT_TRUE(cb);
  cb();
  cb();
  EXPECT_EQ(hits, 2);
  cb = nullptr;
  EXPECT_FALSE(cb);
}

TEST(InlineCallback, HotPathCaptureSetsStayInline) {
  // The capture sets the simulator schedules millions of times: a timer
  // lambda (`this`), and completion continuations holding 1-2 shared_ptrs.
  // These must never hit the allocator.
  struct Dummy {
    void fire() {}
  } d;
  auto timer = [&d] { d.fire(); };
  static_assert(InlineCallback::fits_inline<decltype(timer)>());
  auto sp1 = std::make_shared<int>(0);
  auto sp2 = std::make_shared<int>(0);
  auto continuation = [sp1, sp2] { ++*sp1; };
  static_assert(InlineCallback::fits_inline<decltype(continuation)>());
  auto three = [sp1, sp2, i = std::size_t{0}]() mutable { *sp2 += (int)i++; };
  static_assert(InlineCallback::fits_inline<decltype(three)>());
}

TEST(InlineCallback, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineCallback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  InlineCallback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(*counter, 1);
  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed exactly once
}

TEST(InlineCallback, OversizedCapturesFallBackToHeap) {
  struct Big {
    char bytes[200];
  };
  Big big{};
  big.bytes[199] = 42;
  int seen = 0;
  auto fat = [big, &seen] { seen = big.bytes[199]; };
  static_assert(!InlineCallback::fits_inline<decltype(fat)>());
  InlineCallback cb(std::move(fat));
  InlineCallback moved(std::move(cb));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(InlineCallback, HoldsMoveOnlyCaptures) {
  // std::function cannot hold this; a continuation owning another callback
  // is exactly the link-layer tx_done pattern.
  auto flag = std::make_shared<bool>(false);
  InlineCallback inner([flag] { *flag = true; });
  InlineCallback outer([inner = std::move(inner)]() mutable { inner(); });
  outer();
  EXPECT_TRUE(*flag);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(3); });
  q.schedule(100, [&] { order.push_back(1); });
  q.schedule(200, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  int fired = 0;
  auto id = q.schedule(100, [&] { ++fired; });
  q.schedule(200, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DoubleCancelHarmless) {
  EventQueue q;
  auto id = q.schedule(100, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  auto id = q.schedule(100, [&] { ++fired; });
  q.schedule(200, [&] { ++fired; });
  q.pop().cb();   // fires the id=100 event
  q.cancel(id);   // stale handle: must not disturb the live event
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandleReuseDoesNotAliasStaleIds) {
  EventQueue q;
  int fired = 0;
  auto stale = q.schedule(100, [&] { fired += 1; });
  q.cancel(stale);
  // The freed handle slot is reused by the next schedule; the stale id must
  // not be able to cancel the new event.
  auto fresh = q.schedule(200, [&] { fired += 10; });
  q.cancel(stale);
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(fired, 10);
  (void)fresh;
}

// Retransmit-timer churn: nearly every scheduled event is cancelled before
// it fires (the TCP endpoint's RTO/delayed-ACK pattern). Ordering and the
// live count must survive thousands of interleaved cancels.
TEST(EventQueue, CancelChurn) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    ids.push_back(q.schedule(10 * (i + 1), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) q.cancel(ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(q.size(), static_cast<size_t>(n) / 2);
  SimTime last = 0;
  while (!q.empty()) {
    SimTime t = q.next_time();
    EXPECT_GE(t, last);
    last = t;
    q.pop().cb();
  }
  ASSERT_EQ(fired.size(), static_cast<size_t>(n) / 2);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
}

TEST(Simulator, AdvancesClockMonotonically) {
  Simulator s;
  std::vector<SimTime> times;
  s.schedule(usec(5), [&] { times.push_back(s.now()); });
  s.schedule(usec(1), [&] {
    times.push_back(s.now());
    s.schedule(usec(1), [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], usec(1));
  EXPECT_EQ(times[1], usec(2));
  EXPECT_EQ(times[2], usec(5));
}

TEST(Simulator, RunUntilHorizonStopsClock) {
  Simulator s;
  int fired = 0;
  s.schedule(usec(10), [&] { ++fired; });
  s.run_until(usec(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.now(), usec(5));
  s.run_until(usec(20));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsExecution) {
  Simulator s;
  int fired = 0;
  s.schedule(1, [&] {
    ++fired;
    s.stop();
  });
  s.schedule(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  SimTime when = -1;
  s.schedule(usec(1), [&] {
    s.schedule(-100, [&] { when = s.now(); });
  });
  s.run();
  EXPECT_EQ(when, usec(1));
}

TEST(Resource, SerializesJobs) {
  Simulator s;
  Resource r(s, "bus");
  std::vector<SimTime> completions;
  r.submit(usec(10), [&] { completions.push_back(s.now()); });
  r.submit(usec(5), [&] { completions.push_back(s.now()); });
  s.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], usec(10));
  EXPECT_EQ(completions[1], usec(15));
}

TEST(Resource, IdleGapsDoNotAccumulate) {
  Simulator s;
  Resource r(s, "bus");
  r.submit(usec(10));
  s.run();
  // Schedule a new job after an idle gap.
  s.schedule(usec(90), [&] { r.submit(usec(10)); });
  s.run();
  EXPECT_EQ(r.busy_time(), usec(20));
  EXPECT_EQ(s.now(), usec(110));
}

TEST(Resource, UtilizationWindow) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  r.submit(usec(30));
  s.schedule(usec(100), [] {});
  s.run();
  EXPECT_NEAR(r.utilization(), 0.3, 1e-9);
  r.mark_window();
  s.schedule(usec(100), [] {});
  s.run();
  EXPECT_NEAR(r.utilization(), 0.0, 1e-9);
}

// A job nobody waits for schedules no event, yet run() still ends at its
// completion with the busy time and utilization a completion event gave.
TEST(Resource, CallbacklessJobExecutesNoEvent) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  EXPECT_EQ(r.submit(usec(30)), usec(30));
  EXPECT_FALSE(s.has_pending());
  s.run();
  EXPECT_EQ(s.executed_events(), 0u);
  EXPECT_EQ(s.now(), usec(30));
  EXPECT_EQ(r.busy_time(), usec(30));
  EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
}

TEST(Resource, RunUntilShortOfIdleWorkStopsAtTheHorizon) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  r.submit(usec(30));
  s.run_until(usec(10));
  EXPECT_EQ(s.now(), usec(10));
  // 20 us of the job lie past `now`: the window is fully busy, not 3x.
  EXPECT_DOUBLE_EQ(r.utilization(), 1.0);
  s.run();
  EXPECT_EQ(s.now(), usec(30));
  EXPECT_EQ(s.executed_events(), 0u);
}

// Records every boundary it is advanced through, one per `period`.
class BoundaryLog : public TimeHook {
 public:
  explicit BoundaryLog(SimTime period) : period_(period), due_(period) {}
  SimTime due() const override { return due_; }
  void advance(SimTime at) override {
    seen.push_back(at);
    due_ += period_;
  }
  std::vector<SimTime> seen;

 private:
  SimTime period_;
  SimTime due_;
};

// A drained run() still observes every boundary below the idle horizon, as
// it did when a completion event marked the job's end; the boundary at the
// end itself is observed by the next run, as before.
TEST(Resource, HookSeesEveryBoundaryBelowTheIdleHorizon) {
  Simulator s;
  Resource r(s, "cpu");
  BoundaryLog hook(usec(10));
  s.set_time_hook(&hook);
  s.schedule(usec(5), [&] { r.submit(usec(25)); });
  s.run();
  EXPECT_EQ(s.now(), usec(30));
  EXPECT_EQ(hook.seen, (std::vector<SimTime>{usec(10), usec(20)}));
  s.run_until(usec(45));
  EXPECT_EQ(hook.seen,
            (std::vector<SimTime>{usec(10), usec(20), usec(30), usec(40)}));
}

// A ShardedEngine shard keeps the completion as an (empty) event: the
// engine starts each window at the earliest pending event.
TEST(Resource, ShardKeepsTheCompletionEvent) {
  ShardedEngine engine(1);
  Resource r(engine.shard(0), "cpu");
  r.submit(usec(30));
  EXPECT_TRUE(engine.shard(0).has_pending());
  EXPECT_EQ(engine.shard(0).next_event_time(), usec(30));
  engine.run();
  EXPECT_EQ(engine.executed_events(), 1u);
  EXPECT_EQ(engine.shard(0).now(), usec(30));
}

TEST(Resource, SaturatedUtilizationCapsAtOne) {
  Simulator s;
  Resource r(s, "cpu");
  r.mark_window();
  for (int i = 0; i < 100; ++i) r.submit(usec(10));
  s.schedule(usec(50), [&] { s.stop(); });
  s.run();
  EXPECT_LE(r.utilization(), 1.0);
  EXPECT_GT(r.utilization(), 0.99);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(OnlineStats, MatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.variance(), 6.0, 1e-12);  // sample variance of 1..8
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, QuantilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, EmptyAndSingleSample) {
  SampleSet empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.summary().count(), 0u);

  SampleSet one;
  one.add(42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(one.summary().mean(), 42.0);
}

TEST(SampleSet, AllEqualSamples) {
  SampleSet s;
  for (int i = 0; i < 10; ++i) s.add(7.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.summary().stddev(), 0.0);
}

TEST(SampleSet, SummaryIsIndependentOfQuantileCalls) {
  // summary() accumulates in insertion order; the lazy sorted cache that
  // quantile() builds must never leak into the (order-sensitive) Welford
  // result. Use values whose FP sums differ between orderings.
  SampleSet a, b;
  const std::vector<double> xs = {1e16, 3.14159, -1e16, 2.71828, 1.0, 1e-9};
  for (double x : xs) {
    a.add(x);
    b.add(x);
  }
  (void)b.quantile(0.5);  // sorts b's cache
  const OnlineStats sa = a.summary();
  const OnlineStats sb = b.summary();
  EXPECT_EQ(sa.mean(), sb.mean());
  EXPECT_EQ(sa.variance(), sb.variance());
  // And quantile still answers from sorted data after more adds.
  b.add(-1e20);
  EXPECT_DOUBLE_EQ(b.quantile(0.0), -1e20);
}

TEST(SampleSet, CopyDropsSortCacheButKeepsSamples) {
  SampleSet a;
  a.add(3.0);
  a.add(1.0);
  (void)a.quantile(0.5);  // build the cache
  SampleSet b = a;
  b.add(2.0);
  EXPECT_DOUBLE_EQ(b.median(), 2.0);
  SampleSet c;
  c = a;
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
}

// Property sweep: resource completion time equals sum of costs regardless of
// submission pattern.
class ResourceBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(ResourceBatchTest, TotalBusyEqualsSumOfCosts) {
  Simulator s;
  Resource r(s, "x");
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  SimTime total = 0;
  for (int i = 0; i < 50; ++i) {
    const SimTime cost = static_cast<SimTime>(rng.next_below(10000)) + 1;
    total += cost;
    r.submit(cost);
  }
  s.run();
  EXPECT_EQ(r.busy_time(), total);
  EXPECT_EQ(s.now(), total);
  EXPECT_EQ(r.jobs_completed(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceBatchTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace xgbe::sim
