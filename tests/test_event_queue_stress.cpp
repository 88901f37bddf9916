// Randomized differential test: the indexed-heap EventQueue against a naive
// reference implementation (a flat vector scanned for the minimum), driven
// by seeded schedule/cancel/pop interleavings. Covers the hazards the heap's
// handle table must get right: cancel-after-fire, duplicate cancels, and
// slot reuse aliasing. Further tests pin the callback slab's ownership:
// captures die at cancel time, survive slab growth mid-fire, and die with
// the queue.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"

namespace xgbe::sim {
namespace {

// Reference model: every scheduled event, with the same (time, insertion
// order) total order as the real queue.
struct RefEvent {
  SimTime time = 0;
  std::uint64_t tag = 0;  // insertion order; doubles as the tie-breaker
  bool live = false;
};

std::size_t ref_min(const std::vector<RefEvent>& ref) {
  std::size_t best = ref.size();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!ref[i].live) continue;
    if (best == ref.size() || ref[i].time < ref[best].time ||
        (ref[i].time == ref[best].time && ref[i].tag < ref[best].tag)) {
      best = i;
    }
  }
  return best;
}

std::size_t ref_live(const std::vector<RefEvent>& ref) {
  std::size_t n = 0;
  for (const auto& e : ref) n += e.live ? 1 : 0;
  return n;
}

TEST(EventQueueStress, MatchesNaiveReference) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 777ull, 123456789ull}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::vector<RefEvent> ref;
    std::vector<EventId> ids;
    std::uint64_t last_fired = ~0ull;

    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 45 || ref_live(ref) == 0) {
        const auto time = static_cast<SimTime>(rng.next_below(1u << 20));
        const std::uint64_t tag = ref.size();
        ids.push_back(q.schedule(time, [tag, &last_fired] {
          last_fired = tag;
        }));
        ref.push_back({time, tag, true});
      } else if (roll < 70) {
        // Cancel a random event — live, already fired, or already
        // cancelled. The latter two must be exact no-ops.
        const std::size_t k = rng.next_below(ids.size());
        q.cancel(ids[k]);
        ref[k].live = false;
      } else if (roll < 75 && !ids.empty()) {
        // Duplicate cancel of something guaranteed dead.
        const std::size_t k = rng.next_below(ids.size());
        if (!ref[k].live) q.cancel(ids[k]);
      } else {
        const std::size_t expect = ref_min(ref);
        ASSERT_LT(expect, ref.size());
        ASSERT_FALSE(q.empty());
        auto fired = q.pop();
        EXPECT_EQ(fired.time, ref[expect].time);
        last_fired = ~0ull;
        fired.cb();
        EXPECT_EQ(last_fired, ref[expect].tag);
        ref[expect].live = false;
      }
      ASSERT_EQ(q.size(), ref_live(ref));
    }

    // Drain: the remaining pop order must match the reference exactly.
    while (!q.empty()) {
      const std::size_t expect = ref_min(ref);
      ASSERT_LT(expect, ref.size());
      auto fired = q.pop();
      last_fired = ~0ull;
      fired.cb();
      EXPECT_EQ(last_fired, ref[expect].tag);
      EXPECT_EQ(fired.time, ref[expect].time);
      ref[expect].live = false;
    }
    EXPECT_EQ(ref_live(ref), 0u);
  }
}

// After an event fires, its handle slot may be reused by a new event; the
// old id's generation must no longer match, so cancelling it leaves the
// new tenant untouched even under heavy reuse.
TEST(EventQueueStress, StaleCancelsNeverKillNewTenants) {
  EventQueue q;
  std::vector<EventId> fired_ids;
  int fired = 0;
  for (int round = 0; round < 100; ++round) {
    auto id = q.schedule(round, [&fired] { ++fired; });
    q.pop().cb();
    fired_ids.push_back(id);
  }
  EXPECT_EQ(fired, 100);
  // Fresh events, then stale cancels aimed at every retired handle.
  std::vector<EventId> live_ids;
  for (int i = 0; i < 100; ++i) {
    live_ids.push_back(q.schedule(1000 + i, [&fired] { ++fired; }));
  }
  for (auto id : fired_ids) q.cancel(id);
  EXPECT_EQ(q.size(), 100u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 200);
}

// Cancelling an event destroys its callback right away. Components rely on
// this to drop pooled records and shared state the moment a timer dies,
// not whenever the handle slot happens to be reused.
TEST(EventQueueStress, CancelReleasesCapturesAtCancelTime) {
  EventQueue q;
  Pool<int> pool;
  auto shared = std::make_shared<int>(1);
  const std::weak_ptr<int> watch = shared;
  const EventId id =
      q.schedule(10, [shared, rec = pool.acquire()] { (void)*rec; });
  shared.reset();
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(pool.live(), 1u);

  q.cancel(id);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_TRUE(q.empty());
}

// A capture whose destructor schedules into the queue runs while cancel()
// is releasing it; it must find a consistent queue and its event must fire.
TEST(EventQueueStress, CaptureDestructorMayScheduleDuringCancel) {
  EventQueue q;
  int fired = 0;
  struct OnDestroy {
    EventQueue* q;
    int* fired;
    bool armed = true;
    OnDestroy(EventQueue* queue, int* count) : q(queue), fired(count) {}
    OnDestroy(OnDestroy&& o) noexcept : q(o.q), fired(o.fired) {
      o.armed = false;
    }
    ~OnDestroy() {
      if (armed) q->schedule(5, [f = fired] { ++*f; });
    }
  };
  for (int i = 0; i < 8; ++i) q.schedule(20 + i, [&fired] { ++fired; });
  const EventId id = q.schedule(1, [guard = OnDestroy(&q, &fired)] {});
  q.cancel(id);
  ASSERT_EQ(q.size(), 9u);
  EXPECT_EQ(q.next_time(), 5);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 9);
}

// A firing callback has already left the slab, so it may schedule enough
// events to reallocate the slab many times over while it runs.
TEST(EventQueueStress, FiringCallbackCanGrowTheSlab) {
  EventQueue q;
  std::vector<int> order;
  auto tag = std::make_shared<int>(-1);
  q.schedule(0, [&q, &order, tag] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule(1 + i % 7, [&order, i] { order.push_back(i); });
    }
    order.push_back(*tag);  // own captures intact after the growth
  });
  while (!q.empty()) q.pop().cb();

  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order[0], -1);
  // Children fire by time, then by scheduling order.
  std::vector<int> expect;
  for (int t = 1; t <= 7; ++t) {
    for (int i = 0; i < 1000; ++i) {
      if (1 + i % 7 == t) expect.push_back(i);
    }
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expect);
}

// Pending callbacks are owned by the queue: destroying it frees every
// capture, inline or heap-allocated, with nothing fired.
TEST(EventQueueStress, DestroyingQueueFreesPendingCaptures) {
  auto shared = std::make_shared<int>(0);
  Pool<int> pool;
  {
    EventQueue q;
    for (int i = 0; i < 64; ++i) {
      std::array<char, 128> big{};  // too large for the inline buffer
      q.schedule(i, [shared, big] { ++*shared; (void)big; });
      q.schedule(i, [shared, rec = pool.acquire()] { ++*shared; });
    }
    for (int i = 0; i < 10; ++i) q.pop().cb();
    EXPECT_EQ(*shared, 10);
    EXPECT_EQ(shared.use_count(), 1 + 118);
    EXPECT_EQ(pool.live(), 59u);
  }
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(*shared, 10);
}

}  // namespace
}  // namespace xgbe::sim
