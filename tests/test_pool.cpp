// Pool: free-list reuse, exhaustion fallback, and handle-outlives-pool
// teardown. The CI ASan job running this suite is the leak check.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/pool.hpp"

namespace {

using xgbe::sim::EventQueue;
using xgbe::sim::Pool;

TEST(Pool, ReusesReleasedNodes) {
  Pool<int> pool;
  {
    auto h = pool.acquire();
    *h = 41;
  }
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.free_size(), 1u);
  auto h = pool.acquire();
  EXPECT_EQ(pool.allocated(), 1u) << "second acquire must not hit the heap";
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(*h, 41) << "reused values are handed back as-is";
}

TEST(Pool, VectorKeepsCapacityAcrossReuse) {
  Pool<std::vector<int>> pool;
  std::size_t cap = 0;
  {
    auto h = pool.acquire();
    h->resize(1000);
    cap = h->capacity();
  }
  auto h = pool.acquire();
  EXPECT_GE(h->capacity(), cap) << "recycling should preserve the buffer";
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(Pool, SteadyStateStopsAllocating) {
  Pool<int> pool;
  for (int round = 0; round < 100; ++round) {
    auto a = pool.acquire();
    auto b = pool.acquire();
  }
  EXPECT_EQ(pool.allocated(), 2u);
  EXPECT_EQ(pool.reused(), 198u);
}

TEST(Pool, ExhaustionFallsBackToHeap) {
  Pool<int> pool(/*max_free=*/2);
  {
    std::vector<Pool<int>::Handle> handles;
    for (int i = 0; i < 10; ++i) handles.push_back(pool.acquire());
    EXPECT_EQ(pool.allocated(), 10u) << "past the cap acquire() still works";
    EXPECT_EQ(pool.live(), 10u);
  }
  // Only max_free nodes are retained; the rest were freed on release.
  EXPECT_EQ(pool.free_size(), 2u);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Pool, CopiedHandlesShareOneNode) {
  Pool<int> pool;
  auto a = pool.acquire();
  *a = 7;
  auto b = a;        // copy
  auto c = std::move(a);  // move: a releases nothing extra
  EXPECT_EQ(*b, 7);
  EXPECT_EQ(*c, 7);
  EXPECT_EQ(pool.live(), 1u);
  b.reset();
  EXPECT_EQ(pool.live(), 1u) << "node lives while any handle does";
  c.reset();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.free_size(), 1u);
}

TEST(Pool, HandleOutlivesPool) {
  // Events queued at teardown can hold handles after the owning component
  // (and its pool) died; the node must survive until its last handle
  // releases. ASan verifies nothing leaks on either path.
  Pool<int>::Handle survivor;
  {
    Pool<int> pool;
    survivor = pool.acquire();
    *survivor = 13;
    auto transient = pool.acquire();
  }
  EXPECT_EQ(*survivor, 13) << "value must stay valid past the pool";
  survivor.reset();  // frees the orphaned node
}

TEST(Pool, PendingEventsOutliveTheirPool) {
  // The teardown order the simulator really has: a component's pool dies
  // while its events are still pending in the queue. Those events may
  // still fire, be cancelled, or die with the queue; ASan checks that each
  // path frees its node exactly once. A retention cap below the live count
  // puts both parked and orphaned nodes in play.
  EventQueue q;
  int sum = 0;
  std::vector<xgbe::sim::EventId> ids;
  {
    Pool<int> pool(/*max_free=*/2);
    for (int i = 0; i < 8; ++i) {
      auto h = pool.acquire();
      *h = i;
      ids.push_back(q.schedule(i, [&sum, h] { sum += *h; }));
    }
    q.pop().cb();  // fired while the pool lives: the node is parked
    EXPECT_EQ(pool.free_size(), 1u);
    EXPECT_EQ(pool.live(), 7u);
  }
  q.cancel(ids[1]);
  q.pop().cb();
  q.pop().cb();
  EXPECT_EQ(sum, 0 + 2 + 3);
  EXPECT_EQ(q.size(), 4u);  // the rest die with the queue
}

TEST(Pool, ResetIsIdempotentAndNullHandleSafe) {
  Pool<int> pool;
  Pool<int>::Handle h;
  EXPECT_FALSE(static_cast<bool>(h));
  EXPECT_EQ(h.get(), nullptr);
  h.reset();  // no-op on a null handle
  h = pool.acquire();
  EXPECT_TRUE(static_cast<bool>(h));
  h.reset();
  h.reset();
  EXPECT_EQ(pool.live(), 0u);
}

}  // namespace
