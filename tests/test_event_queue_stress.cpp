// Randomized differential test: the indexed-heap EventQueue against a naive
// reference implementation (a flat vector scanned for the minimum), driven
// by seeded schedule/cancel/pop interleavings. Covers the hazards the heap's
// handle table must get right: cancel-after-fire, duplicate cancels, and
// slot reuse aliasing. The same reference checks FIFO lanes mixed with
// ordinary events: out-of-order lane pushes, lane callbacks that grow their
// own lane's ring while they run, captures whose destructors schedule, and
// cancels and next_time() while a pop has left the root empty. Further
// tests pin the callback slab's ownership: captures die at cancel time,
// survive slab growth mid-fire, and die with the queue.
#include <gtest/gtest.h>

#include <algorithm>
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

// Lanes against the same reference: ordinary events, cancels, and events
// on four lanes. Most lane pushes are in order (often at equal times, so
// ties cross lanes and the heap); some land before their lane's tail and
// must take the ordinary-entry fallback; some lane callbacks schedule a
// burst into their own lane as they fire, as a resource's completion starts
// its next job, growing the lane's ring while its head's callback runs.
// Some events carry a capture whose destructor schedules a further event,
// when it dies after firing or inside cancel(). Pops are often followed at
// once by a push, and next_time() is checked after half the steps, so
// pushes, cancels and next_time() all meet a root left empty by the last
// pop. Pop order must be exactly the (time, seq) order.
struct LaneHarness {
  explicit LaneHarness(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < 4; ++i) lanes.push_back({q.open_lane(), 0});
  }

  struct LaneState {
    LaneId id;
    SimTime tail;  // newest time pushed; later pushes before it fall back
  };

  // Schedules one ordinary event from its destructor, unless moved from.
  struct Spawner {
    LaneHarness* h;
    bool armed = true;
    explicit Spawner(LaneHarness* harness) : h(harness) {}
    Spawner(Spawner&& o) noexcept : h(o.h) { o.armed = false; }
    Spawner(const Spawner&) = delete;
    ~Spawner() {
      if (armed) {
        ++h->spawned;
        h->ordinary(h->now + h->step());
      }
    }
  };

  SimTime step() { return 8 * static_cast<SimTime>(rng.next_below(3)); }

  void ordinary(SimTime t) {
    const std::uint64_t tag = ref.size();
    ids.push_back(q.schedule(t, [this, tag] { last_fired = tag; }));
    ref.push_back({t, tag, true});
  }

  void ordinary_spawning(SimTime t) {
    const std::uint64_t tag = ref.size();
    ids.push_back(q.schedule(
        t, [this, tag, spawn = Spawner(this)] { last_fired = tag; }));
    ref.push_back({t, tag, true});
  }

  void in_lane(std::size_t k, SimTime t) {
    const std::uint64_t tag = ref.size();
    ids.push_back(EventId{});  // lane events are not cancellable
    ref.push_back({t, tag, true});
    // Under one child per event on average, so chains die out.
    const std::uint64_t roll = rng.next_below(32);
    const int burst = roll < 6 ? 1 : roll == 6 ? 12 : 0;
    const bool spawn = rng.next_below(16) == 0;
    if (spawn) {
      q.schedule_in_lane(lanes[k].id, t,
                         [this, tag, s = Spawner(this)] { last_fired = tag; });
    } else {
      q.schedule_in_lane(lanes[k].id, t, [this, tag, k, burst] {
        last_fired = tag;
        for (int i = 0; i < burst; ++i) {
          in_lane(k, std::max(lanes[k].tail, now) + step());
        }
      });
    }
    lanes[k].tail = std::max(lanes[k].tail, t);
    ++lane_pushes;
  }

  EventQueue q;
  Rng rng;
  std::vector<LaneState> lanes;
  std::vector<RefEvent> ref;
  std::vector<EventId> ids;
  SimTime now = 0;
  std::uint64_t last_fired = ~0ull;
  std::uint64_t lane_pushes = 0;
  std::uint64_t spawned = 0;
};

TEST(EventQueueStress, LanesMatchNaiveReference) {
  for (std::uint64_t seed : {3ull, 99ull, 2024ull}) {
    SCOPED_TRACE(seed);
    LaneHarness h(seed);
    std::uint64_t fallbacks = 0;
    std::uint64_t pop_pushes = 0;

    const auto pop_one = [&h] {
      const std::size_t expect = ref_min(h.ref);
      ASSERT_LT(expect, h.ref.size());
      ASSERT_FALSE(h.q.empty());
      ASSERT_EQ(h.q.next_time(), h.ref[expect].time);
      {
        auto fired = h.q.pop();
        ASSERT_EQ(fired.time, h.ref[expect].time);
        ASSERT_GE(fired.time, h.now);
        h.now = fired.time;
        h.last_fired = ~0ull;
        fired.cb();
        ASSERT_EQ(h.last_fired, h.ref[expect].tag);
        h.ref[expect].live = false;
      }  // a Spawner capture schedules here, as the callback dies
    };

    for (int step = 0; step < 10000; ++step) {
      const std::uint64_t roll = h.rng.next_below(100);
      const std::size_t k = h.rng.next_below(h.lanes.size());
      if (roll < 15) {
        h.ordinary(h.now + 8 * static_cast<SimTime>(h.rng.next_below(16)));
      } else if (roll < 20) {
        h.ordinary_spawning(h.now +
                            8 * static_cast<SimTime>(h.rng.next_below(16)));
      } else if (roll < 45) {
        h.in_lane(k, std::max(h.lanes[k].tail, h.now) + h.step());
      } else if (roll < 50) {
        // Out of order: before the lane's tail whenever the lane is busy.
        const SimTime t = h.now + h.step();
        if (t < h.lanes[k].tail) ++fallbacks;
        h.in_lane(k, t);
      } else if (roll < 60 && !h.ids.empty()) {
        // Cancel an ordinary event: live, fired or already cancelled.
        const std::size_t c = h.rng.next_below(h.ids.size());
        if (h.ids[c] == EventId{}) continue;
        h.q.cancel(h.ids[c]);
        h.ref[c].live = false;
      } else if (roll < 70 && ref_live(h.ref) != 0) {
        // Pop, then push at once: the push meets the root the pop left.
        pop_one();
        if (HasFatalFailure()) return;
        if (h.rng.next_below(2) == 0) {
          h.ordinary(h.now + 8 * static_cast<SimTime>(h.rng.next_below(16)));
        } else {
          h.in_lane(k, std::max(h.lanes[k].tail, h.now) + h.step());
        }
        ++pop_pushes;
      } else if (ref_live(h.ref) != 0) {
        pop_one();
        if (HasFatalFailure()) return;
      }
      const std::size_t live = ref_live(h.ref);
      ASSERT_EQ(h.q.empty(), live == 0);
      ASSERT_LE(h.q.size(), live);
      // Not every step: next_time() fills an empty root, and the next
      // step's cancel or push should meet one too.
      if (live != 0 && h.rng.next_below(2) == 0) {
        ASSERT_EQ(h.q.next_time(), h.ref[ref_min(h.ref)].time);
      }
    }
    while (!h.q.empty()) {
      pop_one();
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(ref_live(h.ref), 0u);
    // The mix really exercised the lanes, the fallback path, destructors
    // that schedule, and pop-then-push.
    EXPECT_GT(h.lane_pushes, 3000u);
    EXPECT_GT(fallbacks, 50u);
    EXPECT_GT(h.spawned, 200u);
    EXPECT_GT(pop_pushes, 500u);
  }
}

// A pop that leaves the root empty: cancel(), next_time() and pop() fill
// the empty root first, and a push fills it directly.
TEST(EventQueueStress, EmptiedRootServesNextTimeCancelAndPush) {
  EventQueue q;
  std::vector<int> order;
  for (int t : {5, 40, 10, 30, 20, 50, 60}) {
    q.schedule(t, [&order, t] { order.push_back(t); });
  }
  const EventId at_ten = q.schedule(10, [&order] { order.push_back(-10); });
  q.pop().cb();  // 5; the root is left empty
  EXPECT_EQ(q.size(), 7u);
  q.cancel(at_ten);
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.next_time(), 10);
  q.pop().cb();  // 10; the root is left empty again
  EXPECT_EQ(q.next_time(), 20);
  q.pop().cb();  // 20
  q.schedule(25, [&order] { order.push_back(25); });  // into the empty root
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.next_time(), 25);
  q.pop().cb();  // 25
  q.pop().cb();  // 30, with the root empty before it
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{5, 10, 20, 25, 30, 40, 50, 60}));
}

// Structural check: an in-order stream on one lane is one heap entry, however
// deep the lane gets, and it drains in push order.
TEST(EventQueueStress, InOrderLaneHoldsOneHeapEntry) {
  EventQueue q;
  const LaneId lane = q.open_lane();
  std::vector<int> order;
  for (int i = 0; i < 10000; ++i) {
    // Pairs of equal times: ties resolve by push order inside the lane.
    q.schedule_in_lane(lane, i / 2, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  ASSERT_EQ(order.size(), 10000u);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(order[i], i);
}

// An event earlier than its lane's tail becomes an ordinary heap entry and
// keeps the sequence number it took at the call, so equal-time ties with the
// lane and with plain events still resolve by call order.
TEST(EventQueueStress, LateLaneEventFallsBackInCallOrder) {
  EventQueue q;
  const LaneId lane = q.open_lane();
  std::vector<int> order;
  q.schedule_in_lane(lane, 10, [&order] { order.push_back(1); });
  q.schedule_in_lane(lane, 20, [&order] { order.push_back(2); });
  q.schedule_in_lane(lane, 10, [&order] { order.push_back(3); });  // late
  q.schedule(10, [&order] { order.push_back(4); });
  q.schedule_in_lane(lane, 20, [&order] { order.push_back(5); });
  // The lane head, the fallback and the plain event; 2 and 5 wait in the
  // lane.
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2, 5}));
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
