// Tests for the span profiler (per-segment latency attribution).
//
// The two load-bearing contracts:
//  - Attribution is a ledger, not an estimate: integer-picosecond stage
//    durations telescope, so they sum to the end-to-end time *exactly*.
//  - Observation is free: arming the profiler must not change simulation
//    results (it is fully passive and even leaves the executed event count
//    untouched).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/testbed.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "tools/netpipe.hpp"
#include "tools/nttcp.hpp"

namespace xgbe {
namespace {

// ---------------------------------------------------------------------------
// NetPipe harness: ping-pong is the workload where the ledger is exact by
// construction — every measured iteration is two journeys (ping + pong) and
// the profiler resets at the warmup boundary, so summed journey time equals
// summed measured RTTs.

struct PingPongRun {
  tools::NetpipeResult result;
  std::string fingerprint;  // metrics snapshot + final sim clock
  std::uint64_t executed_events = 0;
};

PingPongRun ping_pong(std::uint32_t payload, bool through_switch,
                      bool coalesce, obs::SpanProfiler* spans) {
  core::Testbed tb;
  tb.set_taps({nullptr, spans});
  auto tuning = core::TuningProfile::lan_tuned(9000);
  if (!coalesce) tuning.intr_delay = 0;
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  if (through_switch) {
    auto& sw = tb.add_switch();
    tb.connect_to_switch(a, sw);
    tb.connect_to_switch(b, sw);
  } else {
    tb.connect(a, b);
  }
  auto cfg = tools::netpipe_config(a.endpoint_config());
  auto conn = tb.open_connection(a, b, cfg, cfg);
  tools::NetpipeOptions opt;
  opt.payload = payload;
  opt.iterations = 40;
  opt.spans = spans;
  PingPongRun run;
  run.result = tools::run_netpipe(tb, conn, opt);
  obs::Registry reg;
  tb.register_metrics(reg);
  run.fingerprint = reg.snapshot().to_json() + "\n@" + std::to_string(tb.now());
  run.executed_events = tb.simulator().executed_events();
  return run;
}

TEST(SpanProfiler, StageTotalsSumToEndToEndExactly) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, /*through_switch=*/false,
                                    /*coalesce=*/true, &spans);
  ASSERT_TRUE(run.result.completed);
  const obs::SpanBreakdown b = spans.breakdown();
  // 40 measured iterations, two journeys (ping + pong) each.
  EXPECT_EQ(b.journeys, 80u);
  EXPECT_EQ(b.aborted, 0u);
  EXPECT_EQ(b.overflowed, 0u);
  EXPECT_EQ(spans.open_journeys(), 0u);
  // The ledger contract: exact integer conservation, no epsilon.
  EXPECT_EQ(b.stage_sum_ps(), b.end_to_end_total_ps);
  // Summed journey time == summed RTTs, so the means agree to rounding.
  EXPECT_NEAR(b.end_to_end_mean_us(), run.result.latency_us, 1e-9);
}

TEST(SpanProfiler, SwitchPathChargesTheSwitchQueueStage) {
  obs::SpanProfiler direct_spans;
  const PingPongRun direct = ping_pong(1, false, true, &direct_spans);
  obs::SpanProfiler switched_spans;
  const PingPongRun switched = ping_pong(1, true, true, &switched_spans);
  ASSERT_TRUE(direct.result.completed);
  ASSERT_TRUE(switched.result.completed);

  const obs::SpanBreakdown bd = direct_spans.breakdown();
  const obs::SpanBreakdown bs = switched_spans.breakdown();
  EXPECT_EQ(bd.stage_mean_us(obs::Stage::kSwitchQueue), 0.0);
  EXPECT_GT(bs.stage_mean_us(obs::Stage::kSwitchQueue), 0.0);
  // Conservation holds on the multi-hop path too.
  EXPECT_EQ(bs.stage_sum_ps(), bs.end_to_end_total_ps);
  // And the switch's added latency shows up end to end.
  EXPECT_GT(switched.result.latency_us, direct.result.latency_us);
}

TEST(SpanProfiler, TheCoalescingStageExplainsTheFig6Fig7Delta) {
  // Paper §3.2: the default 5 us interrupt-coalescing delay is the single
  // biggest line item at one byte (19 us vs 14 us with `rx-usecs 0`). The
  // attribution must place that delta in the intr-coalesce stage, not
  // smear it across the pipeline.
  obs::SpanProfiler coalesced;
  const PingPongRun fig6 = ping_pong(1, false, /*coalesce=*/true, &coalesced);
  obs::SpanProfiler uncoalesced;
  const PingPongRun fig7 = ping_pong(1, false, /*coalesce=*/false,
                                     &uncoalesced);
  ASSERT_TRUE(fig6.result.completed);
  ASSERT_TRUE(fig7.result.completed);

  const double delta_latency =
      fig6.result.latency_us - fig7.result.latency_us;
  EXPECT_GT(delta_latency, 3.0);
  EXPECT_LT(delta_latency, 7.0);

  const double delta_intr =
      coalesced.breakdown().stage_mean_us(obs::Stage::kIntrCoalesce) -
      uncoalesced.breakdown().stage_mean_us(obs::Stage::kIntrCoalesce);
  EXPECT_NEAR(delta_intr, delta_latency, 0.2 * delta_latency);
}

TEST(SpanProfiler, ArmedRunIsBitIdenticalToUnarmed) {
  const PingPongRun unarmed = ping_pong(1024, true, true, nullptr);
  obs::SpanProfiler spans;
  const PingPongRun armed = ping_pong(1024, true, true, &spans);
  EXPECT_EQ(unarmed.fingerprint, armed.fingerprint);
  // The profiler is fully passive: not even the event count moves.
  EXPECT_EQ(unarmed.executed_events, armed.executed_events);
  EXPECT_GT(spans.breakdown().journeys, 0u);
}

TEST(SpanProfiler, DroppedSegmentsAbortInsteadOfCorrupting) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  tb.set_taps({nullptr, &spans});
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  auto& wire = tb.connect(a, b);
  wire.inject_drops(2);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 200;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);

  const obs::SpanBreakdown breakdown = spans.breakdown();
  // The drops (and the retransmissions that replace them) abort journeys.
  EXPECT_GT(breakdown.aborted, 0u);
  EXPECT_GT(breakdown.journeys, 0u);
  // Every journey is opened exactly once and retired exactly once.
  EXPECT_EQ(breakdown.opened,
            breakdown.journeys + breakdown.aborted + spans.open_journeys());
  // Aborted journeys leave no residue in the ledger.
  EXPECT_EQ(breakdown.stage_sum_ps(), breakdown.end_to_end_total_ps);
}

TEST(SpanProfiler, NullDisarmsExistingComponents) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  tb.set_taps({nullptr, &spans});
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 100;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  const std::uint64_t opened = spans.breakdown().opened;
  ASSERT_GT(opened, 0u);

  // Disarmed, a second transfer must open no journey: the shard's taps,
  // which every component reads, hold no profiler any more.
  tb.set_taps({});
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  EXPECT_EQ(spans.breakdown().opened, opened);
}

TEST(SpanProfiler, ResetClearsAggregatesAndOpenJourneys) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, false, true, &spans);
  ASSERT_TRUE(run.result.completed);
  ASSERT_GT(spans.breakdown().journeys, 0u);
  spans.reset();
  const obs::SpanBreakdown b = spans.breakdown();
  EXPECT_EQ(b.journeys, 0u);
  EXPECT_EQ(b.opened, 0u);
  EXPECT_EQ(b.stage_sum_ps(), 0);
  EXPECT_EQ(b.end_to_end_total_ps, 0);
  EXPECT_EQ(spans.open_journeys(), 0u);
}

TEST(SpanProfiler, JourneyHookSeesEveryCompletedJourney) {
  core::Testbed tb;
  obs::SpanProfiler spans;
  std::uint64_t calls = 0;
  obs::StageDurations sum{};
  spans.set_journey_hook(
      [&](net::FlowId, net::NodeId, const obs::StageDurations& dur) {
        ++calls;
        for (std::size_t i = 0; i < obs::kStageCount; ++i) sum[i] += dur[i];
      });
  tb.set_taps({nullptr, &spans});
  const auto tuning = core::TuningProfile::lan_tuned(9000);
  auto& a = tb.add_host("a", hw::presets::pe2650(), tuning);
  auto& b = tb.add_host("b", hw::presets::pe2650(), tuning);
  tb.connect(a, b);
  auto conn =
      tb.open_connection(a, b, a.endpoint_config(), b.endpoint_config());
  tools::NttcpOptions opt;
  opt.payload = 8948;
  opt.count = 200;
  ASSERT_TRUE(tools::run_nttcp(tb, conn, a, b, opt).completed);
  tb.set_taps({});

  // The hook sees exactly the journeys the aggregates fold in.
  const obs::SpanBreakdown breakdown = spans.breakdown();
  EXPECT_EQ(calls, breakdown.journeys);
  EXPECT_EQ(calls, 200u);
  EXPECT_EQ(sum, breakdown.stage_total_ps);
}

TEST(SpanProfiler, BreakdownRenderingsAreConsistent) {
  obs::SpanProfiler spans;
  const PingPongRun run = ping_pong(1, false, true, &spans);
  ASSERT_TRUE(run.result.completed);
  const obs::SpanBreakdown b = spans.breakdown();

  const std::string table =
      obs::format_breakdown_table(b, run.result.latency_us);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    EXPECT_NE(table.find(obs::stage_name(static_cast<obs::Stage>(i))),
              std::string::npos);
  }
  EXPECT_NE(table.find("end-to-end"), std::string::npos);
  EXPECT_NE(table.find("measured"), std::string::npos);

  const std::string json = obs::breakdown_json(b);
  EXPECT_NE(json.find("\"journeys\":" + std::to_string(b.journeys)),
            std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"intr-coalesce\""), std::string::npos);
  // Deterministic rendering: same breakdown, same bytes.
  EXPECT_EQ(json, obs::breakdown_json(spans.breakdown()));
}

}  // namespace
}  // namespace xgbe
