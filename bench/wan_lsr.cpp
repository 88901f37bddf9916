// Section 4 / Figure 9: the Internet2 Land Speed Record WAN experiment.
//
// Paper reference: a single TCP stream from Sunnyvale to Geneva (10,037 km,
// RTT ~180 ms, transatlantic OC-48 POS bottleneck) sustained 2.38 Gb/s —
// ~99% payload efficiency — moving a terabyte in under an hour. The flow
// window (socket buffers ~= BDP) implicitly caps the congestion window just
// below the congested state.
//
// The counterfactual benchmark oversizes the buffers instead: slow start
// overshoots, the bottleneck router drops a burst, and AIMD recovery at
// this bandwidth-delay product takes tens of minutes (Table 1), collapsing
// the achieved rate — "setting the socket buffer too large can severely
// impact performance".
#include "bench/common.hpp"

namespace {

/// One CSV row per scrape boundary of a register_congestion_probes capture
/// (the record stream is the testbed's first flow).
std::string congestion_csv(const xgbe::obs::TimeSeriesStore& store) {
  const char* const columns[] = {"cwnd_segments", "ssthresh_segments",
                                 "flight_bytes",  "srtt_ps",
                                 "rwnd_bytes",    "cc_state"};
  std::vector<std::vector<xgbe::obs::SeriesPoint>> series;
  for (const char* column : columns) series.push_back(store.points(column));
  std::string out =
      "at_ps,flow,cwnd_segments,ssthresh_segments,flight_bytes,srtt_us,"
      "rwnd_bytes,cc_state\n";
  for (std::size_t i = 0; i < series[0].size(); ++i) {
    // Gauges are stored in milli-units; every probe here is an integer.
    auto value = [&](std::size_t c) { return series[c][i].value / 1000; };
    out += std::to_string(series[0][i].at) + ",1," +
           std::to_string(value(0)) + "," + std::to_string(value(1)) + "," +
           std::to_string(value(2)) + "," +
           xgbe::obs::format_double(xgbe::sim::to_microseconds(value(3))) +
           "," + std::to_string(value(4)) + "," + std::to_string(value(5)) +
           "\n";
  }
  return out;
}

void Wan_LandSpeedRecord(benchmark::State& state) {
  // Scrape the record stream's congestion state four times a second: the
  // time series shows slow start ramping and then cwnd pinned flat by the
  // flow window — the "implicit cap" the paper credits for the record.
  xgbe::bench::WanRun run;
  for (auto _ : state) {
    run = xgbe::bench::wan_run(80u * 1024 * 1024, xgbe::sim::sec(8),
                               xgbe::sim::sec(4), /*streams=*/1, {},
                               xgbe::sim::msec(250));
  }
  const double gbps = run.result.throughput_gbps();
  state.counters["Gb/s"] = gbps;
  state.counters["rtt_ms"] = run.rtt_ms;
  state.counters["retransmits"] = static_cast<double>(run.retransmits);
  // Payload efficiency against the OC-48 POS payload capacity.
  state.counters["efficiency"] = gbps / 2.40;
  // Hours to move one terabyte at the achieved rate.
  state.counters["TB_hours"] = gbps > 0 ? 8e12 / (gbps * 1e9) / 3600.0 : 0.0;
  const auto cwnd = run.series.points("cwnd_segments");
  state.counters["cwnd_samples"] = static_cast<double>(cwnd.size());
  std::int64_t cwnd_peak = 0;
  for (const auto& p : cwnd) cwnd_peak = std::max(cwnd_peak, p.value / 1000);
  state.counters["cwnd_peak_segments"] = static_cast<double>(cwnd_peak);
  std::printf("\ncwnd time series (250 ms cadence):\n%s",
              congestion_csv(run.series).c_str());
  xgbe::bench::ResultLog::instance().add_scrape(
      xgbe::bench::point_name("Wan_LandSpeedRecord"), run.scrape_json, "[]");
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Wan_LandSpeedRecord"));
}

// The multi-stream record variant: two parallel streams sharing the OC-48
// reach the same aggregate (the bottleneck is the circuit, not TCP).
void Wan_MultiStream(benchmark::State& state) {
  xgbe::bench::WanRun run;
  for (auto _ : state) {
    run = xgbe::bench::wan_run(48u * 1024 * 1024, xgbe::sim::sec(8),
                               xgbe::sim::sec(4), /*streams=*/2);
  }
  state.counters["Gb/s"] = run.result.throughput_gbps();
  state.counters["retransmits"] = static_cast<double>(run.retransmits);
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Wan_MultiStream"));
}

// A lossy transatlantic variant: Gilbert–Elliott bursty loss on the OC-48
// (the loss pattern real transcontinental paths exhibit) instead of the
// clean circuit the record run enjoyed. Even a ~0.001% bursty loss rate at
// a 176 ms RTT costs a visible fraction of the record rate, because each
// burst forces a multiplicative backoff that takes many RTTs to regrow.
void Wan_LossyGeneva(benchmark::State& state) {
  xgbe::fault::FaultPlan plan;
  plan.seed = 0x10b5;
  plan.burst.p_enter_bad = 1e-5;
  plan.burst.p_exit_bad = 0.5;
  plan.burst.loss_bad = 1.0;
  plan.data_only = true;
  xgbe::bench::WanRun run;
  for (auto _ : state) {
    run = xgbe::bench::wan_run(80u * 1024 * 1024, xgbe::sim::sec(8),
                               xgbe::sim::sec(4), /*streams=*/1, plan);
  }
  state.counters["Gb/s"] = run.result.throughput_gbps();
  state.counters["retransmits"] = static_cast<double>(run.retransmits);
  state.counters["burst_drops"] = static_cast<double>(run.faults.drops_burst);
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Wan_LossyGeneva"));
}

void Wan_OversizedBuffersCounterfactual(benchmark::State& state) {
  xgbe::bench::WanRun run;
  for (auto _ : state) {
    run = xgbe::bench::wan_run(256u * 1024 * 1024);
  }
  state.counters["Gb/s"] = run.result.throughput_gbps();
  state.counters["retransmits"] = static_cast<double>(run.retransmits);
  state.counters["congestion_drops"] = static_cast<double>(run.circuit_drops);
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Wan_OversizedBuffersCounterfactual"));
}

void Wan_UndersizedBuffers(benchmark::State& state) {
  xgbe::bench::WanRun run;
  for (auto _ : state) {
    run = xgbe::bench::wan_run(16u * 1024 * 1024);
  }
  // Window-limited well below the circuit: ~12 MB window / 176 ms.
  state.counters["Gb/s"] = run.result.throughput_gbps();
  state.counters["retransmits"] = static_cast<double>(run.retransmits);
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Wan_UndersizedBuffers"));
}

}  // namespace

BENCHMARK(Wan_LandSpeedRecord)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Wan_MultiStream)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Wan_LossyGeneva)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Wan_OversizedBuffersCounterfactual)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(Wan_UndersizedBuffers)->Unit(benchmark::kMillisecond)->Iterations(1);

XGBE_BENCH_MAIN();
