// Serialized service resources (buses, CPUs, wires).
#pragma once

#include <cstdint>
#include <string>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// A FIFO server that processes one request at a time.
///
/// Models any serialized shared resource on the data path: a PCI-X bus, a
/// memory bus, a CPU, the serialization side of a link. Work submitted while
/// the resource is busy queues behind it (work-conserving, non-preemptive).
/// Busy time is accumulated so callers can report utilization — this is how
/// the /proc/loadavg observations in the paper are reproduced.
class Resource {
 public:
  Resource(Simulator& simulator, std::string name)
      : sim_(simulator),
        name_(std::move(name)),
        lane_(simulator.open_lane()) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Enqueues a job of length `cost`; `done` (optional) fires at completion.
  /// Returns the completion time.
  SimTime submit(SimTime cost, InlineCallback done = nullptr);

  /// Earliest time a newly submitted job would start.
  SimTime available_at() const {
    return busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  }

  /// True if a job submitted now would start immediately.
  bool idle() const { return busy_until_ <= sim_.now(); }

  /// Total busy time accumulated since construction (or last reset).
  SimTime busy_time() const { return busy_accum_; }

  /// Fraction of the window [window_start, now] this resource was busy.
  /// Uses the busy-time snapshot taken by mark_window().
  double utilization() const;

  /// Starts a fresh utilization window at the current time.
  void mark_window();

  const std::string& name() const { return name_; }

  std::uint64_t jobs_completed() const { return jobs_; }

 private:
  Simulator& sim_;
  std::string name_;
  LaneId lane_;  // completions are FIFO: each one ends at or after the last
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;
  SimTime window_start_ = 0;
  SimTime window_busy_base_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace xgbe::sim
