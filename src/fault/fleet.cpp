#include "fault/fleet.hpp"

namespace xgbe::fault {

namespace {

std::string coord(const char* what, std::size_t rack, std::size_t a,
                  std::size_t b = static_cast<std::size_t>(-1)) {
  std::string s = std::string(what) + " rack" + std::to_string(rack) + "-" +
                  std::to_string(a);
  if (b != static_cast<std::size_t>(-1)) {
    s += '-';
    s += std::to_string(b);
  }
  return s;
}

/// The bad-cable signature: short dense loss bursts, clean between them.
/// Entry probability is high enough that even a link carrying only a few
/// dozen frames across a scenario matrix shows unambiguous bursts.
FaultPlan bad_cable_plan() {
  FaultPlan plan;
  plan.burst.p_enter_bad = 0.08;
  plan.burst.p_exit_bad = 0.25;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  return plan;
}

}  // namespace

FleetPlan& FleetPlan::bad_cable_host_link(std::size_t rack, std::size_t host) {
  FleetFault f;
  f.target = FleetFault::Target::kHostLink;
  f.rack = rack;
  f.host = host;
  f.wire = bad_cable_plan();
  f.label = coord("host-link", rack, host) + ": bad cable";
  faults.push_back(std::move(f));
  return *this;
}

FleetPlan& FleetPlan::bad_cable_trunk(std::size_t rack, std::size_t spine,
                                      std::size_t trunk) {
  FleetFault f;
  f.target = FleetFault::Target::kTrunk;
  f.rack = rack;
  f.spine = spine;
  f.trunk = trunk;
  f.wire = bad_cable_plan();
  f.label = coord("trunk", rack, spine, trunk) + ": bad cable";
  faults.push_back(std::move(f));
  return *this;
}

FleetPlan& FleetPlan::flapping_trunk(std::size_t rack, std::size_t spine,
                                     std::size_t trunk, sim::SimTime first_down,
                                     sim::SimTime period, sim::SimTime down,
                                     std::size_t count) {
  FleetFault f;
  f.target = FleetFault::Target::kTrunk;
  f.rack = rack;
  f.spine = spine;
  f.trunk = trunk;
  for (std::size_t i = 0; i < count; ++i) {
    const sim::SimTime at = first_down + static_cast<sim::SimTime>(i) * period;
    f.wire.with_flap(at, at + down);
  }
  f.label = coord("trunk", rack, spine, trunk) + ": flapping";
  faults.push_back(std::move(f));
  return *this;
}

FleetPlan& FleetPlan::half_speed_trunk(std::size_t rack, std::size_t spine,
                                       std::size_t trunk, double rate_bps) {
  FleetFault f;
  f.target = FleetFault::Target::kTrunk;
  f.rack = rack;
  f.spine = spine;
  f.trunk = trunk;
  f.rate_override_bps = rate_bps;
  f.label = coord("trunk", rack, spine, trunk) + ": negotiated low speed";
  faults.push_back(std::move(f));
  return *this;
}

FleetPlan& FleetPlan::dma_throttled_host(std::size_t rack, std::size_t host,
                                         sim::SimTime start, sim::SimTime end,
                                         std::uint32_t mmrbc) {
  FleetFault f;
  f.target = FleetFault::Target::kHost;
  f.rack = rack;
  f.host = host;
  f.host_plan.with_dma_throttle(start, end, mmrbc);
  f.label = coord("host", rack, host) + ": DMA throttled";
  faults.push_back(std::move(f));
  return *this;
}

}  // namespace xgbe::fault
