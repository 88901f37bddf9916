// MAGNET: per-packet path profiling (§3.2, §5).
//
// The paper uses MAGNET to "trace and profile the paths taken by individual
// packets through the TCP stack with negligible effect on network
// performance", quantifying "how many packets take each possible path, the
// cost of each path" — and closes by instrumenting the stack with it to get
// "an unprecedentedly high-resolution picture of the most expensive aspects
// of TCP processing overhead".
//
// This re-implementation is a view over obs::SpanProfiler: it arms a
// profiler for one NTTCP transfer, takes every Nth completed journey of the
// sender's data segments, and coarsens the ten span stages into MAGNET's six
// (tx-ring -> tx_host, tx-dma -> tx_dma, wire + switch-queue -> wire,
// rx-ring -> rx_dma, intr-coalesce -> coalesce, rx-stack -> rx_kernel).
// Journeys of retransmitted segments abort, so retransmissions are never
// sampled; a TSO super-segment is one sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "sim/stats.hpp"

namespace xgbe::tools {

struct MagnetOptions {
  std::uint32_t payload = 8000;
  std::uint32_t count = 2000;
  std::uint32_t sample_every = 10;  // sample every Nth journey (0: none)
  sim::SimTime timeout = sim::sec(120);
};

/// One pipeline stage's residence-time statistics.
struct MagnetStage {
  std::string name;
  sim::OnlineStats us;  // residence time in microseconds
};

struct MagnetReport {
  bool completed = false;
  std::uint64_t sampled_packets = 0;
  double throughput_gbps = 0.0;
  /// Stages in path order: tx host (kernel tx path + driver), TX DMA
  /// (adapter queue + DMA read), wire (+switch), RX DMA, interrupt
  /// coalescing, RX kernel.
  std::vector<MagnetStage> stages;
  double total_us_mean = 0.0;

  const MagnetStage* stage(const std::string& name) const;
  /// The most expensive stage by mean residence time.
  const MagnetStage* hottest() const;
};

/// Runs an NTTCP transfer from `sender` to `receiver` under a span profiler
/// of its own and returns per-stage cost statistics. Whatever profiler was
/// armed on `tb` before is re-armed afterwards (it sees none of this run).
/// Throws std::invalid_argument on a sharded testbed: spans run in classic
/// mode only.
MagnetReport run_magnet(core::Testbed& tb, core::Testbed::Connection& conn,
                        core::Host& sender, core::Host& receiver,
                        const MagnetOptions& options);

}  // namespace xgbe::tools
