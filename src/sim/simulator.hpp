// Discrete-event simulation driver.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Boundary-driven observation hook (e.g. obs::MetricScraper): fires at
/// fixed sim-time boundaries WITHOUT scheduling events, so arming one
/// perturbs nothing — executed-event counts and all simulation state stay
/// bit-identical to an unarmed run.
///
/// Contract: due() names the next boundary the hook wants to observe;
/// advance(at) is called with `at == due()` once every event at or before
/// that boundary has executed (the classic simulator fires between events;
/// the sharded engine fires at lookahead barriers, where the whole fabric
/// is quiescent). advance() must strictly increase due() and must not
/// schedule, cancel, or otherwise mutate simulation state — read-only
/// probes only.
class TimeHook {
 public:
  virtual ~TimeHook() = default;
  /// Next boundary this hook wants to observe.
  virtual SimTime due() const = 0;
  /// Observes boundary `at` (== due()). Must strictly increase due().
  virtual void advance(SimTime at) = 0;
};

class ShardedEngine;

/// Single-threaded deterministic discrete-event simulator.
///
/// Components schedule callbacks; run() executes them in (time, schedule
/// order) until the pending set drains, a stop is requested, or a horizon is
/// reached. A Simulator is the root object every model component holds a
/// reference to; it owns nothing but the clock and the event set.
///
/// Work that needs no callback (a resource job nobody waits for) schedules
/// nothing: hold_until() raises an idle horizon instead, and run() moves
/// the clock to it once the event set drains, exactly where a callback-less
/// completion event would have left it.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` picoseconds from now (>= 0).
  EventId schedule(SimTime delay, EventQueue::Callback&& cb) {
    return queue_.schedule(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  /// Schedules `cb` at absolute time `at` (clamped to `now()`).
  EventId schedule_at(SimTime at, EventQueue::Callback&& cb) {
    return queue_.schedule(at < now_ ? now_ : at, std::move(cb));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Opens a FIFO lane on this simulator's queue (EventQueue::open_lane).
  LaneId open_lane() { return queue_.open_lane(); }

  /// Schedules `cb` at `at` (clamped to `now()`) on `lane`. Fires exactly
  /// where schedule_at would; cannot be cancelled. Meant for sources whose
  /// times rarely decrease — a late event falls back to a heap entry.
  void schedule_in_lane(LaneId lane, SimTime at, EventQueue::Callback&& cb) {
    queue_.schedule_in_lane(lane, at < now_ ? now_ : at, std::move(cb));
  }

  /// Keeps the clock running until `at` without a callback: run() does not
  /// leave the clock before `at`. Executes no event and leaves
  /// has_pending() alone. A ShardedEngine shard schedules an empty event on
  /// `lane` instead, because the engine starts each window at the earliest
  /// pending event, and moving a window start would move the barrier where
  /// cross-shard entries take their sequence numbers.
  void hold_until(LaneId lane, SimTime at) {
    if (shard_markers_) {
      queue_.schedule_in_lane(lane, at < now_ ? now_ : at, nullptr);
    } else if (at > idle_horizon_) {
      idle_horizon_ = at;
    }
  }

  /// Runs until the event set drains or stop() is called. A drained run
  /// ends with the clock at the idle horizon (hold_until) if that is later.
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Runs until `horizon` (inclusive for events at exactly `horizon`),
  /// the event set drains, or stop() is called. The clock advances to the
  /// last executed event, never past `horizon`.
  void run_until(SimTime horizon);

  /// Requests that run() return after the current event completes.
  void stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Number of events executed so far (diagnostic / test hook).
  std::uint64_t executed_events() const { return executed_; }

  /// True while events remain scheduled; idle work (hold_until) does not
  /// count.
  bool has_pending() const { return !queue_.empty(); }

  /// Earliest pending event time, or SimTime max when the set is drained.
  /// The sharded engine polls this across shards to pick the next window.
  SimTime next_event_time() {
    return queue_.empty() ? std::numeric_limits<SimTime>::max()
                          : queue_.next_time();
  }

  /// Arms a boundary hook (null disarms). The hook fires between events —
  /// it is NOT an event, so executed_events() and the whole schedule stay
  /// bit-identical to an unarmed run. In sharded mode install the hook on
  /// the engine (ShardedEngine::set_time_hook), not on a shard.
  void set_time_hook(TimeHook* hook) { hook_ = hook; }
  TimeHook* time_hook() const { return hook_; }

 private:
  friend class ShardedEngine;  // builds its shards with shard_markers_ set

  EventQueue queue_;
  SimTime now_ = 0;
  SimTime idle_horizon_ = 0;   // latest hold_until() time
  bool shard_markers_ = false;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  TimeHook* hook_ = nullptr;
};

}  // namespace xgbe::sim
