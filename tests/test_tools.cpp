// Tests for the measurement tools: MAGNET path profiling and the §3.5.3
// offload extensions, plus tool semantics not covered elsewhere.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "core/testbed.hpp"
#include "obs/span.hpp"
#include "tools/drop_report.hpp"
#include "tools/iperf.hpp"
#include "tools/magnet.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

core::Testbed::Connection make_pair(core::Testbed& tb,
                                    const core::TuningProfile& tuning,
                                    core::Host** a, core::Host** b) {
  *a = &tb.add_host("a", hw::presets::pe2650(), tuning);
  *b = &tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(**a, **b);
  return tb.open_connection(**a, **b, (*a)->endpoint_config(),
                            (*b)->endpoint_config());
}

TEST(Magnet, SamplesExpectedFraction) {
  core::Testbed tb;
  core::Host *a, *b;
  auto conn = make_pair(tb, core::TuningProfile::lan_tuned(9000), &a, &b);
  tools::MagnetOptions opt;
  opt.payload = 8000;
  opt.count = 1000;
  opt.sample_every = 10;
  auto m = tools::run_magnet(tb, conn, *a, *b, opt);
  ASSERT_TRUE(m.completed);
  // One segment per write; every 10th sampled.
  EXPECT_EQ(m.sampled_packets, 100u);
  ASSERT_EQ(m.stages.size(), 6u);
  for (const auto& s : m.stages) {
    EXPECT_EQ(s.us.count(), 100u) << s.name;
    EXPECT_GE(s.us.min(), 0.0) << s.name;
  }
}

TEST(Magnet, StageStructureIsPhysical) {
  core::Testbed tb;
  core::Host *a, *b;
  auto conn = make_pair(tb, core::TuningProfile::lan_tuned(9000), &a, &b);
  tools::MagnetOptions opt;
  opt.payload = 8948;
  opt.count = 1000;
  auto m = tools::run_magnet(tb, conn, *a, *b, opt);
  ASSERT_TRUE(m.completed);
  // Wire time for a 9018-byte frame at 10 Gb/s is fixed: ~7 us + 450 ns.
  const auto* wire = m.stage("wire");
  ASSERT_NE(wire, nullptr);
  EXPECT_NEAR(wire->us.mean(), 7.7, 0.5);  // 9038B serialization + 450ns fiber
  EXPECT_LT(wire->us.stddev(), 0.1);  // serialization is deterministic
  // Coalescing stage equals the configured 5 us interrupt delay.
  const auto* coalesce = m.stage("coalesce");
  ASSERT_NE(coalesce, nullptr);
  EXPECT_NEAR(coalesce->us.mean(), 5.0, 0.8);
  // Under load the queue-bearing stages dominate — the paper's observation
  // that host software, not the wire, is where the time goes.
  const auto* hottest = m.hottest();
  ASSERT_NE(hottest, nullptr);
  EXPECT_TRUE(hottest->name == "rx_kernel" || hottest->name == "tx_dma");
}

// Same transfer, same options, on a fresh pair joined by a switch (so the
// switch-queue stage is non-zero): with or without MAGNET.
struct MagnetRig {
  core::Testbed tb;
  core::Host* a = nullptr;
  core::Host* b = nullptr;
  core::Testbed::Connection conn;
  MagnetRig() {
    const auto tuning = core::TuningProfile::lan_tuned(9000);
    a = &tb.add_host("a", hw::presets::pe2650(), tuning);
    b = &tb.add_host("b", hw::presets::pe2650(), tuning);
    auto& sw = tb.add_switch();
    tb.connect_to_switch(*a, sw);
    tb.connect_to_switch(*b, sw);
    conn = tb.open_connection(*a, *b, a->endpoint_config(),
                              b->endpoint_config());
  }
};

constexpr std::uint32_t kMagnetPayload = 8948;
constexpr std::uint32_t kMagnetCount = 500;

tools::NttcpOptions magnet_nttcp_options() {
  tools::NttcpOptions opt;
  opt.payload = kMagnetPayload;
  opt.count = kMagnetCount;
  return opt;
}

tools::MagnetOptions magnet_options() {
  tools::MagnetOptions opt;
  opt.payload = kMagnetPayload;
  opt.count = kMagnetCount;
  opt.sample_every = 10;
  return opt;
}

TEST(Magnet, LeavesTheRunBitIdentical) {
  MagnetRig plain;
  const auto r = tools::run_nttcp(plain.tb, plain.conn, *plain.a, *plain.b,
                                  magnet_nttcp_options());
  MagnetRig profiled;
  const auto m = tools::run_magnet(profiled.tb, profiled.conn, *profiled.a,
                                   *profiled.b, magnet_options());
  ASSERT_TRUE(r.completed && m.completed);
  EXPECT_EQ(m.sampled_packets, kMagnetCount / 10);
  EXPECT_EQ(m.throughput_gbps, r.throughput_gbps());
  EXPECT_EQ(profiled.tb.simulator().executed_events(),
            plain.tb.simulator().executed_events());
  EXPECT_EQ(profiled.tb.now(), plain.tb.now());
  const auto& ptx = plain.conn.client->stats();
  const auto& mtx = profiled.conn.client->stats();
  EXPECT_EQ(mtx.bytes_sent, ptx.bytes_sent);
  EXPECT_EQ(mtx.bytes_acked, ptx.bytes_acked);
  EXPECT_EQ(profiled.conn.server->stats().bytes_consumed,
            plain.conn.server->stats().bytes_consumed);
  tools::DropReport plain_ledger, profiled_ledger;
  plain_ledger.add_testbed(plain.tb);
  profiled_ledger.add_testbed(profiled.tb);
  EXPECT_EQ(profiled_ledger.render(), plain_ledger.render());
  // MAGNET disarms its profiler when it returns.
  EXPECT_EQ(profiled.tb.taps().spans, nullptr);
}

TEST(Magnet, CoarsensSpanJourneys) {
  // Hand-armed profiler: every 10th journey, grouped into MAGNET's stages.
  MagnetRig hand;
  std::array<sim::OnlineStats, 6> grouped;
  std::uint64_t journeys = 0;
  obs::SpanProfiler spans;
  spans.set_journey_hook([&](net::FlowId, net::NodeId,
                             const obs::StageDurations& dur) {
    if (++journeys % 10 != 0) return;
    auto ps = [&dur](obs::Stage stage) {
      return dur[static_cast<std::size_t>(stage)];
    };
    grouped[0].add(sim::to_microseconds(ps(obs::Stage::kTxRing)));
    grouped[1].add(sim::to_microseconds(ps(obs::Stage::kTxDma)));
    grouped[2].add(sim::to_microseconds(ps(obs::Stage::kWire) +
                                        ps(obs::Stage::kSwitchQueue)));
    grouped[3].add(sim::to_microseconds(ps(obs::Stage::kRxRing)));
    grouped[4].add(sim::to_microseconds(ps(obs::Stage::kIntrCoalesce)));
    grouped[5].add(sim::to_microseconds(ps(obs::Stage::kRxStack)));
  });
  hand.tb.set_taps({nullptr, &spans});
  ASSERT_TRUE(tools::run_nttcp(hand.tb, hand.conn, *hand.a, *hand.b,
                               magnet_nttcp_options())
                  .completed);
  hand.tb.set_taps({});

  MagnetRig profiled;
  const auto m = tools::run_magnet(profiled.tb, profiled.conn, *profiled.a,
                                   *profiled.b, magnet_options());
  ASSERT_TRUE(m.completed);
  ASSERT_EQ(m.stages.size(), grouped.size());
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    const sim::OnlineStats& got = m.stages[i].us;
    EXPECT_EQ(got.count(), grouped[i].count()) << m.stages[i].name;
    EXPECT_EQ(got.mean(), grouped[i].mean()) << m.stages[i].name;
    EXPECT_EQ(got.min(), grouped[i].min()) << m.stages[i].name;
    EXPECT_EQ(got.max(), grouped[i].max()) << m.stages[i].name;
  }
  EXPECT_EQ(m.sampled_packets, grouped[0].count());
}

TEST(Magnet, RejectsAShardedTestbed) {
  core::Testbed tb(2);
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host_on(0, "a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host_on(1, "b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  EXPECT_THROW(tools::run_magnet(tb, conn, a, b, magnet_options()),
               std::invalid_argument);
}

// run_iperf stops its writer when the measurement window closes, while the
// writer's last write is typically still blocked on socket-buffer space.
// Running the testbed on must admit that write harmlessly and let the
// network drain to a conserved frame ledger.
TEST(Iperf, TestbedDrainsAfterRun) {
  core::Testbed tb;
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn = tb.open_connection(a, b, tools::iperf_config(a.endpoint_config()),
                                 b.endpoint_config());
  tools::IperfOptions opt;
  opt.warmup = sim::msec(2);
  opt.duration = sim::msec(10);
  const auto r = tools::run_iperf(tb, conn, a, b, opt);
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.bytes, 0u);

  ASSERT_NO_THROW(tb.run_for(sim::sec(2)));
  const auto& tx = conn.client->stats();
  EXPECT_EQ(tx.bytes_acked, tx.bytes_sent);
  EXPECT_EQ(conn.server->stats().bytes_consumed, tx.bytes_sent);
  EXPECT_EQ(conn.client->invariant_violation(), "");
  tools::DropReport ledger;
  ledger.add_testbed(tb);
  EXPECT_GT(ledger.delivered, 0u);
  EXPECT_TRUE(ledger.conserved()) << ledger.render();
}

TEST(FutureOffload, HeaderSplittingCutsCpuLoad) {
  auto run = [](bool rddp) {
    core::Testbed tb;
    core::Host *a, *b;
    auto t = core::TuningProfile::lan_tuned(9000);
    t.header_splitting = rddp;
    auto conn = make_pair(tb, t, &a, &b);
    tools::NttcpOptions opt;
    opt.payload = 8948;
    opt.count = 1500;
    return tools::run_nttcp(tb, conn, *a, *b, opt);
  };
  const auto base = run(false);
  const auto rddp = run(true);
  ASSERT_TRUE(base.completed && rddp.completed);
  // "virtually eliminating processing load from the host CPU" (§3.5.3).
  EXPECT_LT(rddp.receiver_load, base.receiver_load * 0.5);
  EXPECT_GT(rddp.throughput_bps, base.throughput_bps * 1.2);
}

TEST(FutureOffload, CsaAloneDoesNotHelpThroughput) {
  // §3.5.2's conclusion: the I/O bus is NOT the primary bottleneck once
  // MMRBC is tuned, so moving the adapter to the MCH without fixing the
  // copy path changes little.
  auto run = [](bool csa) {
    core::Testbed tb;
    core::Host *a, *b;
    auto t = core::TuningProfile::lan_tuned(9000);
    t.adapter_on_mch = csa;
    auto conn = make_pair(tb, t, &a, &b);
    tools::NttcpOptions opt;
    opt.payload = 8948;
    opt.count = 1500;
    return tools::run_nttcp(tb, conn, *a, *b, opt).throughput_gbps();
  };
  EXPECT_NEAR(run(true) / run(false), 1.0, 0.1);
}

TEST(FutureOffload, CombinedMeetsPaperProjection) {
  // §5: "throughput approaching 8 Gb/s, end-to-end latencies below 10 us,
  // and a CPU load approaching zero".
  core::Testbed tb;
  core::Host *a, *b;
  auto conn =
      make_pair(tb, core::TuningProfile::future_offload(9000), &a, &b);
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 1500;
  auto r = tools::run_nttcp(tb, conn, *a, *b, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.throughput_gbps(), 8.0);
  EXPECT_LT(r.receiver_load, 0.55);

  core::Testbed tb2;
  core::Host *c, *d;
  auto t2 = core::TuningProfile::future_offload(9000);
  c = &tb2.add_host("c", hw::presets::pe2650(), t2);
  d = &tb2.add_host("d", hw::presets::pe2650(), t2);
  tb2.connect(*c, *d);
  auto cfg = tools::netpipe_config(c->endpoint_config());
  auto conn2 = tb2.open_connection(*c, *d, cfg, cfg);
  tools::NetpipeOptions no;
  no.payload = 1;
  no.iterations = 40;
  auto l = tools::run_netpipe(tb2, conn2, no);
  ASSERT_TRUE(l.completed);
  EXPECT_LT(l.latency_us, 10.0);
}

}  // namespace
}  // namespace xgbe
