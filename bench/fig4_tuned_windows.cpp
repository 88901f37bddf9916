// Figure 4 and the §3.3 optimization ladder: throughput with oversized
// windows, increased PCI-X burst size, and a uniprocessor kernel.
//
// Paper reference: MMRBC 512->4096 lifts the jumbo peak from 2.7 to
// ~3.6 Gb/s (+33% peak, +17% average); the UP kernel adds ~10% to the
// jumbo average (and ~25% at 1500); 256 KB buffers reach 2.47 Gb/s
// (1500 MTU) and 3.9 Gb/s (9000 MTU) and eliminate the 7436-8948 dip.
//
// The rung x MTU x payload grid is simulated once through timed_sweep
// (independent deterministic simulations per point); rows report their
// precomputed point and the host time it took in its worker.
#include "bench/common.hpp"
#include "bench/parallel_sweep.hpp"

namespace {

xgbe::core::TuningProfile rung(int index, std::uint32_t mtu) {
  switch (index) {
    case 0:
      return xgbe::core::TuningProfile::stock(mtu);
    case 1:
      return xgbe::core::TuningProfile::with_pci_burst(mtu);
    case 2:
      return xgbe::core::TuningProfile::with_uniprocessor(mtu);
    default:
      return xgbe::core::TuningProfile::with_big_windows(mtu);
  }
}

struct Point {
  int rung;
  std::uint32_t mtu;
  std::uint32_t payload;
};

const std::vector<Point>& grid() {
  static const std::vector<Point> pts = [] {
    std::vector<Point> p;
    for (int r : {0, 1, 2, 3}) {
      for (std::uint32_t mtu : {1500u, 9000u}) {
        for (auto payload : xgbe::bench::payload_sweep()) {
          p.push_back({r, mtu, static_cast<std::uint32_t>(payload)});
        }
      }
    }
    return p;
  }();
  return pts;
}

using Timed = xgbe::bench::Timed<xgbe::tools::NttcpResult>;

const Timed& result_for(int r, std::uint32_t mtu, std::uint32_t payload) {
  static const std::vector<Timed> results =
      xgbe::bench::timed_sweep(grid(), [](const Point& p) {
        return xgbe::bench::nttcp_pair(xgbe::hw::presets::pe2650(),
                                       rung(p.rung, p.mtu), p.payload);
      });
  for (std::size_t i = 0; i < grid().size(); ++i) {
    if (grid()[i].rung == r && grid()[i].mtu == mtu &&
        grid()[i].payload == payload) {
      return results[i];
    }
  }
  static const Timed none{};
  return none;
}

void Fig4_Ladder(benchmark::State& state) {
  const auto rung_index = static_cast<int>(state.range(0));
  const auto mtu = static_cast<std::uint32_t>(state.range(1));
  const auto payload = static_cast<std::uint32_t>(state.range(2));
  const Timed& t = result_for(rung_index, mtu, payload);
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.throughput_gbps();
  state.counters["cpu_tx"] = r.sender_load;
  state.counters["cpu_rx"] = r.receiver_load;
  xgbe::bench::log_point(
      state,
      xgbe::bench::point_name(
          "Fig4_Ladder",
          {{"rung", rung_index}, {"mtu", mtu}, {"payload", payload}}));
}

}  // namespace

// rung: 0=stock, 1=+4096 MMRBC, 2=+UP kernel, 3=+256 KB buffers (Fig 4).
BENCHMARK(Fig4_Ladder)
    ->ArgsProduct({{0, 1, 2, 3}, {1500, 9000}, xgbe::bench::payload_sweep()})
    ->ArgNames({"rung", "mtu", "payload"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

XGBE_BENCH_MAIN();
