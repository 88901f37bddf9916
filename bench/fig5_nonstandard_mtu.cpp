// Figure 5: cumulative optimizations with non-standard MTUs (8160, 16000),
// with the theoretical reference lines for GbE, Myrinet, and QsNet.
//
// Paper reference: 4.11 Gb/s peak at 8160-byte MTU (the whole frame fits an
// 8 KB kmalloc block); 16000-byte MTU peaks at ~4.09 Gb/s with a clearly
// higher average across payload sizes.
//
// The MTU x payload grid is simulated once through timed_sweep
// (independent deterministic simulations per point); rows report their
// precomputed point and the host time it took in its worker.
#include "analysis/interconnects.hpp"
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
    for (std::uint32_t mtu : {8160u, 9000u, 16000u}) {
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
        return xgbe::bench::nttcp_pair(
            xgbe::hw::presets::pe2650(),
            xgbe::core::TuningProfile::lan_tuned(p.mtu), p.payload);
      });
  for (std::size_t i = 0; i < grid().size(); ++i) {
    if (grid()[i].mtu == mtu && grid()[i].payload == payload) {
      return results[i];
    }
  }
  static const Timed none{};
  return none;
}

void Fig5_NonStandardMtu(benchmark::State& state) {
  const auto mtu = static_cast<std::uint32_t>(state.range(0));
  const auto payload = static_cast<std::uint32_t>(state.range(1));
  const Timed& t = result_for(mtu, payload);
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.throughput_gbps();
  state.counters["cpu_tx"] = r.sender_load;
  state.counters["cpu_rx"] = r.receiver_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Fig5_NonStandardMtu",
                                     {{"mtu", mtu}, {"payload", payload}}));
}

// The horizontal reference lines of Fig 5 (hardware limits).
void Fig5_ReferenceLines(benchmark::State& state) {
  for (auto _ : state) {
  }
  state.counters["GbE_theoretical"] = 1.0;
  state.counters["Myrinet_theoretical"] = 2.0;
  state.counters["QsNet_theoretical"] = 3.2;
  xgbe::bench::log_point(state,
                         xgbe::bench::point_name("Fig5_ReferenceLines"));
}

}  // namespace

BENCHMARK(Fig5_NonStandardMtu)
    ->ArgsProduct({{8160, 9000, 16000}, xgbe::bench::payload_sweep()})
    ->ArgNames({"mtu", "payload"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Fig5_ReferenceLines)->Iterations(1);

XGBE_BENCH_MAIN();
