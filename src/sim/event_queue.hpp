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

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(SimTime at, Callback cb);

  /// Cancels a previously scheduled event and destroys its callback (and
  /// with it every capture) before returning. Cancelling an already-fired
  /// or already-cancelled event is a harmless no-op.
  void cancel(EventId id);

  bool empty() const { return heap_.empty(); }
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
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // determinism tiebreak: (time, seq) is a total order
    std::uint32_t handle;
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

  std::uint32_t acquire_handle(std::uint32_t pos);
  void release_handle(std::uint32_t h);
  void remove_at(std::size_t i);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<HandleRec> handles_;
  std::vector<Callback> callbacks_;  // slab, indexed like handles_
  std::vector<std::uint32_t> free_handles_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace xgbe::sim
