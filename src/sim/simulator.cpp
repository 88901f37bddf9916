#include "sim/simulator.hpp"

#include <limits>

namespace xgbe::sim {

void Simulator::run_until(SimTime horizon) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    // A boundary hook fires once every event at or before its due time has
    // executed — i.e. when the next pending event lies strictly past the
    // boundary. Firing happens *between* events and touches no simulation
    // state, so armed runs stay bit-identical (executed-event count
    // included). The clock is deliberately left alone: the boundary time
    // travels in the advance() argument.
    if (hook_ != nullptr) {
      while (hook_->due() < queue_.next_time() && hook_->due() <= horizon) {
        hook_->advance(hook_->due());
      }
    }
    if (queue_.next_time() > horizon) {
      now_ = horizon;
      return;
    }
    auto fired = queue_.pop();
    now_ = fired.time;
    ++executed_;
    // Null callbacks are legal: a ShardedEngine shard's hold_until markers
    // only advance the clock.
    if (fired.cb) fired.cb();
  }
  if (stopped_) return;
  // The pending set drained. An unbounded run still covers idle work
  // (hold_until): it observes every hook boundary below the idle horizon
  // and leaves the clock there, as an event at the horizon would.
  if (horizon == std::numeric_limits<SimTime>::max()) {
    if (idle_horizon_ > now_) {
      if (hook_ != nullptr) {
        while (hook_->due() < idle_horizon_) hook_->advance(hook_->due());
      }
      now_ = idle_horizon_;
    }
    return;
  }
  // Advance the clock to the horizon anyway so bounded waits always make
  // progress. Idle work pending past the horizon puts it there, as any
  // pending event does.
  if (now_ < horizon || idle_horizon_ > now_) now_ = horizon;
  // State is frozen up to the horizon, so every boundary in (last event,
  // horizon] is observable now. run() (horizon = max) takes no tail —
  // there is no bound to observe up to.
  if (hook_ != nullptr) {
    while (hook_->due() <= horizon) hook_->advance(hook_->due());
  }
}

}  // namespace xgbe::sim
