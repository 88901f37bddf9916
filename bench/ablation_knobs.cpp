// Ablation benches for the design choices DESIGN.md calls out: each knob's
// isolated contribution to the headline 10GbE numbers.
//
// Every (family, knob-setting) pair is an independent deterministic
// simulation, so the full ablation grid is computed once through
// timed_sweep; each benchmark row reports its precomputed point and, as its
// time, the host time that point took in its worker.
#include "bench/common.hpp"
#include "bench/parallel_sweep.hpp"

namespace {

using xgbe::core::TuningProfile;
using xgbe::hw::presets::pe2650;

enum class Family {
  kMmrbc,
  kCoalescing,
  kNapi,
  kCsum,
  kTso,
  kSws,
  kTimestamps,
};

struct Point {
  Family family;
  std::int64_t arg;
};

struct Result {
  xgbe::tools::NttcpResult thr;
  xgbe::tools::NetpipeResult lat{};
};

Result compute(const Point& p) {
  Result r;
  switch (p.family) {
    case Family::kMmrbc: {
      // The burst-amortization curve behind the paper's 512 -> 4096 step.
      TuningProfile t = TuningProfile::with_big_windows(9000);
      t.mmrbc = static_cast<std::uint32_t>(p.arg);
      r.thr = xgbe::bench::nttcp_pair(pe2650(), t, 8000);
      break;
    }
    case Family::kCoalescing: {
      // Throughput/CPU vs latency trade (§3.3.2).
      TuningProfile t = TuningProfile::lan_tuned(9000);
      t.intr_delay = xgbe::sim::usec(p.arg);
      r.thr = xgbe::bench::nttcp_pair(pe2650(), t, 8000);
      r.lat = xgbe::bench::netpipe_pair(pe2650(), t, 1, false);
      break;
    }
    case Family::kNapi: {
      // NAPI vs the old receive API (§3.3.2 discussion).
      TuningProfile t = TuningProfile::lan_tuned(1500);
      t.rx_api = p.arg != 0 ? xgbe::os::RxApi::kNapi : xgbe::os::RxApi::kOldApi;
      r.thr = xgbe::bench::nttcp_pair(pe2650(), t, 8000);
      break;
    }
    case Family::kCsum: {
      // Receive checksum offload (§2: the adapter computes TCP checksums).
      TuningProfile t = TuningProfile::lan_tuned(9000);
      t.csum_offload = p.arg != 0;
      r.thr = xgbe::bench::nttcp_pair(pe2650(), t, 8000);
      break;
    }
    case Family::kTso: {
      // TCP segmentation offload ("Large Send", §3.3.2).
      TuningProfile t = TuningProfile::lan_tuned(9000);
      t.tso = p.arg != 0;
      r.thr = xgbe::bench::nttcp_pair(pe2650(), t, 16344);
      break;
    }
    case Family::kSws: {
      // SWS-avoidance MSS rounding of the advertised window (§3.5.1):
      // disabling the rounding (a hypothetical "fractional MSS increments"
      // kernel, one of the paper's proposed fixes) recovers the dip.
      xgbe::core::Testbed tb;
      const auto tuning = TuningProfile::with_uniprocessor(9000);
      auto& a = tb.add_host("a", pe2650(), tuning);
      auto& b = tb.add_host("b", pe2650(), tuning);
      tb.connect(a, b);
      auto ca = a.endpoint_config();
      auto cb = b.endpoint_config();
      cb.sws_round_window = p.arg != 0;
      auto conn = tb.open_connection(a, b, ca, cb);
      xgbe::tools::NttcpOptions opt;
      opt.payload = 8948;  // the dip payload
      opt.count = xgbe::bench::kNttcpCount;
      r.thr = xgbe::tools::run_nttcp(tb, conn, a, b, opt);
      break;
    }
    case Family::kTimestamps: {
      // Timestamp option cost at jumbo MSS (§3.4: ~10% on E7505 systems).
      TuningProfile t = TuningProfile::stock(9000);
      t.timestamps = p.arg != 0;
      r.thr = xgbe::bench::nttcp_pair(xgbe::hw::presets::intel_e7505(), t,
                                      8948);
      break;
    }
  }
  return r;
}

const std::vector<Point>& grid() {
  static const std::vector<Point> pts = [] {
    std::vector<Point> p;
    for (std::int64_t mmrbc : {512, 1024, 2048, 4096}) {
      p.push_back({Family::kMmrbc, mmrbc});
    }
    for (std::int64_t usecs : {0, 5, 20, 50}) {
      p.push_back({Family::kCoalescing, usecs});
    }
    for (Family f : {Family::kNapi, Family::kCsum, Family::kTso, Family::kSws,
                     Family::kTimestamps}) {
      p.push_back({f, 0});
      p.push_back({f, 1});
    }
    return p;
  }();
  return pts;
}

const xgbe::bench::Timed<Result>& result_for(Family family,
                                             std::int64_t arg) {
  static const std::vector<xgbe::bench::Timed<Result>> results =
      xgbe::bench::timed_sweep(grid(), compute);
  for (std::size_t i = 0; i < grid().size(); ++i) {
    if (grid()[i].family == family && grid()[i].arg == arg) {
      return results[i];
    }
  }
  static const xgbe::bench::Timed<Result> none{};
  return none;
}

void Ablation_MmrbcSweep(benchmark::State& state) {
  const auto& t = result_for(Family::kMmrbc, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_MmrbcSweep",
                                     {{"mmrbc", state.range(0)}}));
}

void Ablation_CoalescingSweep(benchmark::State& state) {
  const auto& t = result_for(Family::kCoalescing, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  state.counters["latency_us"] = r.lat.latency_us;
  state.counters["cpu_rx"] = r.thr.receiver_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_CoalescingSweep",
                                     {{"rx_usecs", state.range(0)}}));
}

void Ablation_NapiVsOldApi(benchmark::State& state) {
  const auto& t = result_for(Family::kNapi, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  state.counters["cpu_rx"] = r.thr.receiver_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_NapiVsOldApi",
                                     {{"napi", state.range(0)}}));
}

void Ablation_ChecksumOffload(benchmark::State& state) {
  const auto& t = result_for(Family::kCsum, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  state.counters["cpu_rx"] = r.thr.receiver_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_ChecksumOffload",
                                     {{"offload", state.range(0)}}));
}

void Ablation_Tso(benchmark::State& state) {
  const auto& t = result_for(Family::kTso, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  state.counters["cpu_tx"] = r.thr.sender_load;
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_Tso",
                                     {{"tso", state.range(0)}}));
}

void Ablation_SwsRounding(benchmark::State& state) {
  const auto& t = result_for(Family::kSws, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_SwsRounding",
                                     {{"round", state.range(0)}}));
}

void Ablation_Timestamps(benchmark::State& state) {
  const auto& t = result_for(Family::kTimestamps, state.range(0));
  for (auto _ : state) state.SetIterationTime(t.seconds);
  const auto& r = t.value;
  state.counters["Gb/s"] = r.thr.throughput_gbps();
  xgbe::bench::log_point(
      state, xgbe::bench::point_name("Ablation_Timestamps",
                                     {{"timestamps", state.range(0)}}));
}

}  // namespace

BENCHMARK(Ablation_MmrbcSweep)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->ArgNames({"mmrbc"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_CoalescingSweep)
    ->Arg(0)
    ->Arg(5)
    ->Arg(20)
    ->Arg(50)
    ->ArgNames({"rx_usecs"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_NapiVsOldApi)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"napi"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_ChecksumOffload)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"offload"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_Tso)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"tso"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_SwsRounding)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"round"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

BENCHMARK(Ablation_Timestamps)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"timestamps"})
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

XGBE_BENCH_MAIN();
