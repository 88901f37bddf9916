#include "sim/resource.hpp"

namespace xgbe::sim {

SimTime Resource::submit(SimTime cost, InlineCallback&& done) {
  if (cost < 0) cost = 0;
  const SimTime finish = finish_if_submitted(cost);
  busy_until_ = finish;
  busy_accum_ += cost;
  ++jobs_;
  // A completion nobody waits for is not an event: it only has to keep the
  // clock running until the job ends, so run() still covers all resource
  // activity.
  if (done) {
    sim_.schedule_in_lane(lane_, finish, std::move(done));
  } else {
    sim_.hold_until(lane_, finish);
  }
  return finish;
}

double Resource::utilization() const {
  // Busy time can extend past `now` (queued work); clamp the numerator so a
  // saturated resource reports 1.0 rather than >1.
  const SimTime window = sim_.now() - window_start_;
  if (window <= 0) return 0.0;
  SimTime busy = busy_accum_ - window_busy_base_;
  // Subtract the portion of accumulated busy time scheduled beyond `now`.
  if (busy_until_ > sim_.now()) busy -= (busy_until_ - sim_.now());
  if (busy < 0) busy = 0;
  if (busy > window) busy = window;
  return static_cast<double>(busy) / static_cast<double>(window);
}

void Resource::mark_window() {
  window_start_ = sim_.now();
  window_busy_base_ = busy_accum_;
  if (busy_until_ > sim_.now()) {
    // Work already queued past `now` belongs to the new window.
    window_busy_base_ -= (busy_until_ - sim_.now());
  }
}

}  // namespace xgbe::sim
