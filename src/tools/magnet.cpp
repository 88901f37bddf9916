#include "tools/magnet.hpp"

#include "obs/span.hpp"
#include "tools/nttcp.hpp"

namespace xgbe::tools {

const MagnetStage* MagnetReport::stage(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const MagnetStage* MagnetReport::hottest() const {
  const MagnetStage* best = nullptr;
  for (const auto& s : stages) {
    if (best == nullptr || s.us.mean() > best->us.mean()) best = &s;
  }
  return best;
}

MagnetReport run_magnet(core::Testbed& tb, core::Testbed::Connection& conn,
                        core::Host& sender, core::Host& receiver,
                        const MagnetOptions& options) {
  MagnetReport report;
  report.stages = {
      {"tx_host", {}},   // TCP emit -> driver posts the frame (tx-ring)
      {"tx_dma", {}},    // adapter queue + DMA read (tx-dma)
      {"wire", {}},      // first bit out -> last bit at the peer NIC
      {"rx_dma", {}},    // arrival -> DMA write complete (rx-ring)
      {"coalesce", {}},  // DMA done -> interrupt raised (intr-coalesce)
      {"rx_kernel", {}}, // interrupt -> TCP accepted the segment (rx-stack)
  };

  // Every sample_every-th completed journey of the sender's data on this
  // connection, coarsened from the ten span stages to MAGNET's six.
  obs::SpanProfiler spans;
  std::uint64_t completed = 0;
  spans.set_journey_hook([&](net::FlowId flow, net::NodeId src,
                             const obs::StageDurations& dur) {
    if (flow != conn.flow || src != sender.node()) return;
    if (options.sample_every == 0 || ++completed % options.sample_every != 0) {
      return;
    }
    ++report.sampled_packets;
    auto ps = [&dur](obs::Stage stage) {
      return dur[static_cast<std::size_t>(stage)];
    };
    const sim::SimTime grouped[] = {
        ps(obs::Stage::kTxRing),
        ps(obs::Stage::kTxDma),
        ps(obs::Stage::kWire) + ps(obs::Stage::kSwitchQueue),
        ps(obs::Stage::kRxRing),
        ps(obs::Stage::kIntrCoalesce),
        ps(obs::Stage::kRxStack),
    };
    for (std::size_t i = 0; i < report.stages.size(); ++i) {
      report.stages[i].us.add(sim::to_microseconds(grouped[i]));
    }
  });

  // Restores the testbed's previous taps, also if the run throws; declared
  // after `spans`, so it runs before `spans` dies. Arming throws
  // std::invalid_argument on a sharded testbed.
  struct Rearm {
    core::Testbed& tb;
    obs::Taps previous;
    ~Rearm() { tb.set_taps(previous); }
  } rearm{tb, tb.taps()};
  tb.set_taps({tb.taps().trace, &spans});

  NttcpOptions nt;
  nt.payload = options.payload;
  nt.count = options.count;
  nt.timeout = options.timeout;
  const NttcpResult r = run_nttcp(tb, conn, sender, receiver, nt);

  report.completed = r.completed;
  report.throughput_gbps = r.throughput_gbps();
  double sum = 0.0;
  for (const auto& s : report.stages) sum += s.us.mean();
  report.total_us_mean = sum;
  return report;
}

}  // namespace xgbe::tools
