// Figure 3: Throughput of stock TCP, 1500- vs 9000-byte MTU.
//
// Paper reference: peaks at ~1.8 Gb/s (1500 MTU, CPU load ~0.9) and
// ~2.7 Gb/s (9000 MTU, CPU load ~0.4), with a marked throughput dip for
// payloads between 7436 and 8948 bytes on the jumbo curve.
//
// Each benchmark row is one NTTCP sweep point: MTU x application payload.
// The whole grid is simulated once, fanned across worker threads by
// timed_sweep (each point is an independent deterministic simulation);
// rows then report their precomputed point, timed by the host time that
// point took in its worker.
#include "bench/common.hpp"
#include "bench/parallel_sweep.hpp"

namespace {

struct Point {
  std::uint32_t mtu;
  std::uint32_t payload;
};

const std::vector<Point>& grid() {
  static const std::vector<Point> pts = [] {
    std::vector<Point> p;
    for (std::uint32_t mtu : {1500u, 9000u}) {
      for (auto payload : xgbe::bench::payload_sweep()) {
        p.push_back({mtu, static_cast<std::uint32_t>(payload)});
      }
    }
    return p;
  }();
  return pts;
}

using Timed = xgbe::bench::Timed<xgbe::tools::NttcpResult>;

const Timed& result_for(std::uint32_t mtu, std::uint32_t payload) {
  static const std::vector<Timed> results =
      xgbe::bench::timed_sweep(grid(), [](const Point& p) {
        return xgbe::bench::nttcp_pair(xgbe::hw::presets::pe2650(),
                                       xgbe::core::TuningProfile::stock(p.mtu),
                                       p.payload);
      });
  for (std::size_t i = 0; i < grid().size(); ++i) {
    if (grid()[i].mtu == mtu && grid()[i].payload == payload) {
      return results[i];
    }
  }
  static const Timed none{};
  return none;
}

void Fig3_StockTcp(benchmark::State& state) {
  const auto mtu = static_cast<std::uint32_t>(state.range(0));
  const auto payload = static_cast<std::uint32_t>(state.range(1));
  const Timed& t = result_for(mtu, payload);
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.throughput_gbps();
  state.counters["cpu_tx"] = r.sender_load;
  state.counters["cpu_rx"] = r.receiver_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Fig3_StockTcp",
                                     {{"mtu", mtu}, {"payload", payload}}));
}

}  // namespace

BENCHMARK(Fig3_StockTcp)
    ->ArgsProduct({{1500, 9000}, xgbe::bench::payload_sweep()})
    ->ArgNames({"mtu", "payload"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

XGBE_BENCH_MAIN();
