// Watchdog tests: stalls become clean diagnostic failures instead of hung
// or silently-incomplete runs, and invariant violations trip immediately.
#include <gtest/gtest.h>

#include <string>

#include "core/testbed.hpp"
#include "fault/host_fault.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/watchdog.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

TEST(Watchdog, LivelockTripsWithDiagnosis) {
  sim::Simulator sim;
  // A component livelocked on self-rescheduling events: the queue never
  // drains and no useful work happens.
  std::function<void()> spin = [&]() { sim.schedule(sim::usec(10), spin); };
  sim.schedule(0, spin);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(10);
  opt.stalled_ticks = 5;
  sim::Watchdog dog(sim, opt);
  std::uint64_t progress = 0;
  dog.watch_progress("bytes", [&]() { return progress; });
  std::string reported;
  dog.on_trip = [&](const std::string& why) { reported = why; };
  dog.arm();

  sim.run_until(sim::sec(10));
  EXPECT_TRUE(dog.tripped());
  EXPECT_LT(sim.now(), sim::sec(1));  // stopped at the trip, not the horizon
  EXPECT_NE(dog.diagnosis().find("no forward progress"), std::string::npos);
  EXPECT_NE(dog.diagnosis().find("bytes=0"), std::string::npos);
  EXPECT_EQ(reported, dog.diagnosis());
}

TEST(Watchdog, ProgressSuppressesTripping) {
  sim::Simulator sim;
  std::uint64_t work = 0;
  std::function<void()> tickwork = [&]() {
    ++work;
    sim.schedule(sim::msec(15), tickwork);
  };
  sim.schedule(0, tickwork);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(10);
  opt.stalled_ticks = 3;
  sim::Watchdog dog(sim, opt);
  dog.watch_progress("work", [&]() { return work; });
  dog.arm();
  sim.run_until(sim::sec(5));
  EXPECT_FALSE(dog.tripped());
  EXPECT_EQ(sim.now(), sim::sec(5));
  dog.disarm();
}

TEST(Watchdog, InvariantViolationTripsImmediately) {
  sim::Simulator sim;
  bool broken = false;
  sim.schedule(sim::msec(55), [&]() { broken = true; });
  // Keep the queue alive past the breakage.
  std::function<void()> spin = [&]() { sim.schedule(sim::msec(1), spin); };
  sim.schedule(0, spin);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(10);
  sim::Watchdog dog(sim, opt);
  dog.add_invariant("snd_una<=snd_nxt", [&]() -> std::string {
    return broken ? "snd_una 5 ahead of snd_nxt 3" : "";
  });
  dog.arm();
  sim.run_until(sim::sec(10));
  ASSERT_TRUE(dog.tripped());
  // First tick after the violation (t=60ms), not the 10 s horizon.
  EXPECT_EQ(sim.now(), sim::msec(60));
  EXPECT_NE(dog.diagnosis().find("snd_una<=snd_nxt"), std::string::npos);
  EXPECT_NE(dog.diagnosis().find("snd_una 5"), std::string::npos);
}

TEST(Watchdog, DisarmedDogNeverFires) {
  sim::Simulator sim;
  std::function<void()> spin = [&]() { sim.schedule(sim::msec(1), spin); };
  sim.schedule(0, spin);
  sim::Watchdog::Options opt;
  opt.interval = sim::msec(10);
  opt.stalled_ticks = 2;
  sim::Watchdog dog(sim, opt);
  std::uint64_t zero = 0;
  dog.watch_progress("none", [&]() { return zero; });
  dog.arm();
  dog.disarm();
  sim.run_until(sim::msec(500));
  EXPECT_FALSE(dog.tripped());
}

// The acceptance scenario: a transfer stalled by a dead link must become a
// clean failure with a diagnosis, not a hang or a silent partial result.
TEST(Watchdog, DeadCarrierConvertsHangIntoDiagnosticFailure) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  ASSERT_TRUE(tb.run_until_established(conn));

  // Total blackout from now on: the carrier goes down and never returns.
  fault::FaultPlan dead;
  dead.flaps.push_back(fault::LinkFlap{tb.now(), -1});
  wire.set_fault_plan(dead);

  for (int i = 0; i < 32; ++i) conn.client->app_send(8948, nullptr);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(100);
  opt.stalled_ticks = 20;  // 2 s without progress = stalled
  sim::Watchdog dog(tb.simulator(), opt);
  dog.watch_progress("acked", [&]() {
    return conn.client->stats().bytes_acked;
  });
  dog.watch_progress("delivered", [&]() {
    return conn.server->stats().bytes_delivered;
  });
  dog.add_invariant("client", [&]() {
    return conn.client->invariant_violation();
  });
  dog.add_invariant("server", [&]() {
    return conn.server->invariant_violation();
  });
  dog.arm();

  tb.run_for(sim::sec(120));
  ASSERT_TRUE(dog.tripped());
  EXPECT_LT(tb.now(), sim::sec(10));  // failed fast, long before the horizon
  EXPECT_NE(dog.diagnosis().find("no forward progress"), std::string::npos);
  EXPECT_EQ(wire.fault_counters().flaps, 1u);
  EXPECT_GT(wire.fault_counters().drops_carrier, 0u);

  // The endpoints were healthy — just cut off. The invariants held.
  EXPECT_EQ(conn.client->invariant_violation(), "");
  EXPECT_EQ(conn.server->invariant_violation(), "");
}

// A permanently stalled rx descriptor ring wedges the transfer; the trip
// autopsy must carry the flight-recorder tail showing *what* was happening
// at the wedge (ring-full drops at the receiver's NIC), not just "no
// progress".
TEST(Watchdog, AutopsyIncludesFlightRecorderTail) {
  core::Testbed tb;
  obs::TraceSink sink(64);
  tb.set_taps({&sink, nullptr});

  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  // A tiny rx ring on the receiver so the stall fills it within a handful
  // of frames.
  nic::AdapterSpec small;
  small.rx_ring = 8;
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning, small);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  ASSERT_TRUE(tb.run_until_established(conn));

  // The driver stops replenishing the receive ring from now on — forever.
  fault::HostFaultPlan stall;
  stall.with_rx_ring_stall(tb.now(), sim::sec(3600));
  b.set_host_fault_plan(stall);

  for (int i = 0; i < 64; ++i) conn.client->app_send(8948, nullptr);

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(100);
  opt.stalled_ticks = 20;
  sim::Watchdog dog(tb.simulator(), opt);
  dog.watch_progress("delivered", [&]() {
    return conn.server->stats().bytes_delivered;
  });
  obs::attach_flight_recorder(dog, sink, 16);
  dog.arm();

  tb.run_for(sim::sec(120));
  ASSERT_TRUE(dog.tripped());
  const std::string& why = dog.diagnosis();
  EXPECT_NE(why.find("no forward progress"), std::string::npos);
  EXPECT_NE(why.find("flight-recorder"), std::string::npos);
  // The tail names the mechanism: the retransmission loop slamming into the
  // receiver NIC's full ring. (The one-shot kRingStall event from the stall
  // onset has aged out of the tail by trip time — the tail shows the steady
  // state, which is the point.)
  EXPECT_NE(why.find("rx-ring-full"), std::string::npos) << why;
  EXPECT_NE(why.find("retransmission"), std::string::npos) << why;
  EXPECT_GT(b.adapter(0).rx_dropped_ring(), 0u);
}

// A healthy transfer under the same watchdog must never trip it and must
// keep every endpoint invariant green at each tick.
TEST(Watchdog, HealthyTransferNeverTrips) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());

  sim::Watchdog::Options opt;
  opt.interval = sim::msec(5);
  opt.stalled_ticks = 10;
  sim::Watchdog dog(tb.simulator(), opt);
  dog.watch_progress("acked", [&]() {
    return conn.client->stats().bytes_acked;
  });
  dog.add_invariant("client", [&]() {
    return conn.client->invariant_violation();
  });
  dog.add_invariant("server", [&]() {
    return conn.server->invariant_violation();
  });
  dog.arm();

  tools::NttcpOptions nttcp;
  nttcp.payload = 8948;
  nttcp.count = 500;
  const auto r = tools::run_nttcp(tb, conn, a, b, nttcp);
  dog.disarm();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(dog.tripped()) << dog.diagnosis();
}

}  // namespace
}  // namespace xgbe
