// Deterministic pending-event set.
//
// Events are ordered by (time, insertion sequence); the sequence tiebreak
// makes simulations bit-for-bit reproducible regardless of heap internals.
//
// The pending set is an indexed 4-ary min-heap of slim (time, seq, handle)
// keys: every live event's heap position is tracked through a handle table,
// so cancel() removes the entry from the heap in O(log n) instead of
// deferring to a lazy skip list. Callbacks never move during a sift — they
// sit in a slab indexed by handle slot, written once by schedule() and moved
// out once by pop() or cancel(). Handles are (slot, generation) pairs;
// firing or cancelling an event bumps the slot's generation, which makes
// stale EventIds (cancel-after-fire, duplicate cancel) exact no-ops.
//
// FIFO sources (resource completions, per-direction link deliveries) feed
// lanes instead: a lane queues keys whose times never decrease, and only its
// head sits in the heap, so thousands of in-flight frames cost one heap
// entry. A lane is sorted by (time, seq), so its head is its minimum and the
// heap's minimum is still the global one: the pop order is exactly the one
// plain schedule() calls would give.
#pragma once

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
  EventId schedule(SimTime at, Callback cb);

  /// Opens an empty lane: one slot in the lane table. The lane allocates
  /// its ring only once it first queues an event behind its head.
  LaneId open_lane();

  /// Schedules `cb` at `at` on `lane`, taking its sequence number now, so it
  /// fires exactly where schedule(at, cb) would have. Lane events cannot be
  /// cancelled. An event earlier than the lane's newest one does not fit the
  /// FIFO and becomes an ordinary heap entry (keeping its sequence number).
  void schedule_in_lane(LaneId lane, SimTime at, Callback cb);

  /// Cancels a previously scheduled event and destroys its callback (and
  /// with it every capture) before returning. Cancelling an already-fired
  /// or already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
  /// Heap entries: ordinary events plus one head per non-empty lane.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event. Precondition: !empty().
  SimTime next_time() const;

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
    std::uint32_t handle;
    std::uint32_t lane;  // kNoLane for ordinary entries
  };

  // Keys queued behind a lane's head, in a power-of-two ring.
  struct Lane {
    std::vector<Entry> ring;
    std::uint32_t first = 0;   // ring index of the oldest queued key
    std::uint32_t queued = 0;  // keys in the ring (the head is not one)
    bool armed = false;        // the lane's head sits in heap_
    SimTime tail = 0;          // time of the lane's newest event
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
  void push_heap(const Entry& e);
  static void enqueue(Lane& lane, const Entry& e);
  void remove_at(std::size_t i);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<HandleRec> handles_;
  std::vector<Callback> callbacks_;  // slab, indexed like handles_
  std::vector<std::uint32_t> free_handles_;
  std::vector<Lane> lanes_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace xgbe::sim
