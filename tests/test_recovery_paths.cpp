// Targeted recovery-path tests the chaos soak leans on: RTO exponential
// backoff and Karn's rule under a sustained ACK blackout, persist probes
// rescuing a lost window update, and the fast-retransmit vs timeout split
// in EndpointStats.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/testbed.hpp"
#include "obs/trace.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

struct Pair {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  link::Link* wire = nullptr;

  explicit Pair(const core::TuningProfile& tuning) {
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    wire = &tb.connect(*a, *b);
  }
};

TEST(RtoBackoff, DoublesUnderAckBlackoutAndKarnProtectsSrtt) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));

  // Warm the RTT estimator with one clean exchange; before the first data
  // sample the RTO sits at the 3 s initial value, which would hide the
  // backoff progression this test is after.
  conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::msec(100));
  ASSERT_EQ(conn.client->stats().bytes_acked, 8948u);
  const sim::SimTime srtt_before = conn.client->srtt();
  ASSERT_GT(srtt_before, 0);
  ASSERT_LT(srtt_before, sim::msec(1));  // LAN-scale estimate

  // Black-hole the ACK path (b -> a) for two seconds, starting now. Data
  // keeps arriving at the receiver; every acknowledgment dies on the return
  // wire, so the sender can only recover through its retransmission timer.
  fault::FaultPlan blackout;
  blackout.flaps.push_back(
      fault::LinkFlap{p.tb.now(), p.tb.now() + sim::sec(2)});
  p.wire->set_fault_plan(blackout, /*from_a=*/false);

  // Record when each retransmission from a hits the wire.
  std::vector<sim::SimTime> retx_times;
  obs::TraceSink sink;
  sink.on_record = [&](const obs::TraceEvent& ev) {
    if (ev.type == obs::EventType::kWireTx && p.wire->name() == ev.where &&
        ev.src == p.a->node() && (ev.flags & obs::kFlagRetransmit) != 0 &&
        ev.len > 0) {
      retx_times.push_back(ev.at);
    }
  };
  p.tb.set_taps({&sink, nullptr});

  conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::sec(8));
  p.tb.set_taps({});

  // Every recovery was timer-driven: no duplicate ACKs ever came back.
  EXPECT_EQ(conn.client->stats().fast_retransmits, 0u);
  EXPECT_GE(conn.client->stats().timeouts, 3u);
  ASSERT_GE(retx_times.size(), 3u);

  // Successive RTO intervals must grow exponentially (2x, within jitter).
  for (std::size_t i = 2; i < retx_times.size(); ++i) {
    const double prev =
        sim::to_seconds(retx_times[i - 1] - retx_times[i - 2]);
    const double cur = sim::to_seconds(retx_times[i] - retx_times[i - 1]);
    EXPECT_GT(cur, prev * 1.5)
        << "interval " << i << " did not back off (" << prev << "s -> "
        << cur << "s)";
  }

  // Karn's rule: the ACK that finally arrives acknowledges a segment that
  // was retransmitted seconds after its first transmission. Measuring that
  // ambiguous ACK would blow srtt up to seconds; it must stay at LAN scale.
  EXPECT_EQ(conn.client->stats().bytes_acked, 2u * 8948u);
  EXPECT_LT(conn.client->srtt(), sim::msec(50));
  EXPECT_GE(conn.client->srtt(), srtt_before / 4);
}

TEST(Persist, ProbesRescueALostWindowUpdate) {
  // The textbook deadlock the persist timer exists for: the reader stops,
  // the window closes, and when the reader comes back the reopening
  // window-update ACK is lost. Without probes both ends would wait
  // forever; the probe (and its retransmissions) must notice the reopened
  // window and rescue the transfer.
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto cb = p.b->endpoint_config();
  cb.app_reader = false;  // reader is away; the window will slam shut
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(), cb);
  ASSERT_TRUE(p.tb.run_until_established(conn));

  const std::uint64_t total = 40ull * 8948ull;
  for (int i = 0; i < 40; ++i) conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::sec(2));
  // The window closed and probing began while the reader was away.
  ASSERT_GT(conn.client->stats().window_probes, 0u);
  ASSERT_LT(conn.server->stats().bytes_delivered, total);

  // The reader returns — but every ACK it sends for the next two seconds
  // (including the window update that reopens the transfer) is lost.
  fault::FaultPlan blackout;
  blackout.flaps.push_back(
      fault::LinkFlap{p.tb.now(), p.tb.now() + sim::sec(2)});
  p.wire->set_fault_plan(blackout, /*from_a=*/false);
  conn.server->set_app_reader(true);

  p.tb.run_for(sim::sec(60));
  EXPECT_EQ(conn.server->stats().bytes_consumed, total);
  EXPECT_EQ(conn.client->stats().bytes_acked, total);
  EXPECT_GT(p.wire->fault_counters().drops_carrier, 0u);
  EXPECT_EQ(conn.client->invariant_violation(), "");
  EXPECT_EQ(conn.server->invariant_violation(), "");
}

TEST(Accounting, SingleDropInAPipelineIsAFastRetransmit) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // Lose one data frame once the pipeline is deep enough for three
  // duplicate ACKs to come back.
  p.tb.simulator().schedule(sim::msec(2), [&]() {
    p.wire->fault_injector(true).inject_drops(1);
  });
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 400;
  const auto r = tools::run_nttcp(p.tb, conn, *p.a, *p.b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 8948ull * 400ull);
  EXPECT_EQ(conn.client->stats().retransmits, 1u);
  EXPECT_EQ(conn.client->stats().fast_retransmits, 1u);
  EXPECT_EQ(conn.client->stats().timeouts, 0u);
  EXPECT_EQ(p.wire->fault_injector(true).counters().drops_forced, 1u);
}

TEST(Accounting, SingleDropWithNothingInFlightNeedsTheTimer) {
  Pair p(core::TuningProfile::lan_tuned(9000));
  auto conn = p.tb.open_connection(*p.a, *p.b, p.a->endpoint_config(),
                                   p.b->endpoint_config());
  ASSERT_TRUE(p.tb.run_until_established(conn));
  // One lone write, dropped: no later segments, so no duplicate ACKs can
  // trigger fast retransmit — only the RTO recovers it.
  p.wire->fault_injector(true).inject_drops(1);
  std::uint64_t consumed = 0;
  conn.server->on_consumed = [&](std::uint64_t bytes) { consumed += bytes; };
  conn.client->app_send(8948, nullptr);
  p.tb.run_for(sim::sec(5));
  EXPECT_EQ(consumed, 8948u);
  EXPECT_EQ(conn.client->stats().timeouts, 1u);
  EXPECT_EQ(conn.client->stats().fast_retransmits, 0u);
  EXPECT_EQ(conn.client->stats().retransmits, 1u);
}

}  // namespace
}  // namespace xgbe
