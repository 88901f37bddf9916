// Deterministic pending-event set.
//
// Events are ordered by (time, insertion sequence); the sequence tiebreak
// makes simulations bit-for-bit reproducible regardless of heap internals.
//
// The pending set is an indexed 4-ary min-heap of slim (time, seq, ref)
// keys. An ordinary event's key refers to a handle slot: the handle table
// tracks its heap position, so cancel() removes the entry in O(log n)
// instead of deferring to a lazy skip list. Its callback sits in a slab
// indexed by handle slot, written once by schedule() and moved out once by
// pop() or cancel(), never by a sift. Handles are (slot, generation) pairs;
// firing or cancelling an event bumps the slot's generation, which makes
// stale EventIds (cancel-after-fire, duplicate cancel) exact no-ops.
//
// FIFO sources (resource completions, per-direction link deliveries) feed
// lanes instead. A lane owns its events outright: a power-of-two ring of
// (time, seq, callback) slots whose times never decrease. Only its head's
// key sits in the heap, so thousands of in-flight frames cost one heap
// entry, and lane events take no handle: a sift that moves a lane head
// writes no handle record. A lane is sorted by (time, seq), so its head is
// its minimum and the heap's minimum is still the global one: the pop order
// is exactly the one plain schedule() calls would give.
//
// A pop that does not refill the root leaves it as a hole. A push made
// before anything else (the fired callback's, typically) fills the hole
// with one sift-down instead of the removal's sift-down plus its own
// sift-up. next_time(), pop() and cancel() fill a hole first from the last
// entry, as a plain removal would have.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Opaque handle for cancelling a scheduled event. A default-constructed
/// EventId refers to nothing; cancelling it is a harmless no-op.
struct EventId {
  std::uint32_t slot = 0xffffffffu;
  std::uint32_t gen = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Names a FIFO lane of one EventQueue (see EventQueue::open_lane()).
using LaneId = std::uint32_t;

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(SimTime at, Callback&& cb);

  /// Opens an empty lane: one entry in the lane table, with room for one
  /// event. The lane allocates a ring (doubling as it fills) only when it
  /// first holds two events at once.
  LaneId open_lane();

  /// Schedules `cb` at `at` on `lane`, taking its sequence number now, so it
  /// fires exactly where schedule(at, cb) would have. Lane events cannot be
  /// cancelled. An event earlier than the lane's newest one does not fit the
  /// FIFO and becomes an ordinary heap entry (keeping its sequence number).
  void schedule_in_lane(LaneId lane, SimTime at, Callback&& cb);

  /// Cancels a previously scheduled event and destroys its callback (and
  /// with it every capture) before returning. Cancelling an already-fired
  /// or already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return heap_.size() == (hole_ ? 1u : 0u); }
  /// Heap entries: ordinary events plus one head per non-empty lane.
  std::size_t size() const { return heap_.size() - (hole_ ? 1 : 0); }

  /// Time of the earliest live event. Precondition: !empty(). Not const:
  /// it fills a hole the last pop left, so a run that polls it reads the
  /// root.
  SimTime next_time() {
    assert(!empty());
    if (hole_) refill_root();
    return heap_.front().time;
  }

  /// Pops and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback cb;
  };
  Fired pop();

  /// Total events ever scheduled (diagnostic).
  std::uint64_t scheduled_count() const { return next_seq_ - 1; }

 private:
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  struct Entry {
    SimTime time;
    std::uint64_t seq;  // determinism tiebreak: (time, seq) is a total order
    std::uint32_t handle;  // ordinary entries only
    std::uint32_t lane;    // a lane head's lane; kNoLane for ordinary entries
  };

  struct LaneSlot {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Callback cb;
  };

  // A lane's events, head first, in a power-of-two ring. The ring starts
  // as the one inline slot `solo`, so a lane that never holds two events at
  // once allocates nothing: set-up touches dozens of lanes a few times each.
  struct Lane {
    LaneSlot solo;
    std::vector<LaneSlot> ring;  // empty until the lane needs two slots
    std::uint32_t first = 0;     // ring index of the head
    std::uint32_t count = 0;     // events in the lane, the head included
    SimTime tail = 0;            // time of the lane's newest event

    LaneSlot* slots() { return ring.empty() ? &solo : ring.data(); }
    std::uint32_t mask() const {
      return ring.empty() ? 0 : static_cast<std::uint32_t>(ring.size() - 1);
    }
  };

  struct HandleRec {
    std::uint32_t pos;  // index into heap_, kFreePos when not live
    std::uint32_t gen;
  };
  static constexpr std::uint32_t kFreePos = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::uint32_t acquire_handle();
  void release_handle(std::uint32_t h);
  static void enqueue(Lane& lane, SimTime at, std::uint64_t seq,
                      Callback&& cb);
  void push_heap(const Entry& e);
  void vacate_root();
  void refill_root();
  void remove_at(std::size_t i);
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;  // heap_[0] is stale while hole_ is set
  bool hole_ = false;
  std::vector<HandleRec> handles_;
  std::vector<Callback> callbacks_;  // slab, indexed like handles_
  std::vector<std::uint32_t> free_handles_;
  std::vector<Lane> lanes_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace xgbe::sim
