// Per-segment latency attribution (span profiler).
//
// SpanProfiler follows each data segment through the pipeline stages the
// paper's latency ledger argues about (Fig. 6/7: where do the 19 us go?):
//
//   app-write -> sockbuf -> tx-ring -> tx-dma -> wire -> switch-queue
//             -> rx-ring -> intr-coalesce -> rx-stack -> app-read
//
// Stamps come from the same choke points that feed obs::TraceSink and obey
// the same zero-perturbation contract: every hook is null-pointer-gated, the
// profiler draws no random numbers and schedules no events, so an armed run
// is bit-identical to an unarmed one (asserted by test).
//
// Accounting is telescoping: a journey remembers only the stage it is
// currently in and when it entered; each mark() charges the elapsed interval
// to the stage being left. Durations are integer picoseconds, so the stage
// totals sum to the end-to-end total *exactly* — the breakdown is a ledger,
// not an approximation. Repeated marks of the same stage (e.g. the two wire
// hops around a switch) simply accumulate.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace xgbe::obs {

/// Pipeline stages a data segment passes through, in path order. Each value
/// names the interval *ending* at the corresponding choke point; see
/// stage_name() for the labels used in tables and JSON.
enum class Stage : std::uint8_t {
  kAppWrite = 0,  // app_send() called -> kernel admitted the write
  kSockbuf,       // write admitted -> segment built and handed to the driver
  kTxRing,        // kernel tx path -> driver posts the frame to the adapter
  kTxDma,         // DMA-engine wait + read across the I/O bus -> first bit
                  // on the wire
  kWire,          // serialization + propagation (accumulates per hop)
  kSwitchQueue,   // switch ingress -> egress port begins transmit
  kRxRing,        // last bit arrived -> RX DMA write complete
  kIntrCoalesce,  // DMA complete -> interrupt raised (coalescing hold-off)
  kRxStack,       // interrupt -> TCP accepted the segment (stack + reasm)
  kAppRead,       // accepted -> application consumed the bytes
};

inline constexpr std::size_t kStageCount = 10;

/// One journey's integer-picosecond duration per stage, indexed by Stage.
using StageDurations = std::array<std::int64_t, kStageCount>;

/// Display name for a stage ("app-write", "intr-coalesce", ...).
const char* stage_name(Stage stage);

/// Aggregated attribution result. All _ps totals are exact integer sums of
/// journey stage durations; stage_total_ps sums to end_to_end_total_ps by
/// construction (asserted by the stage-conservation test).
struct SpanBreakdown {
  StageDurations stage_total_ps{};
  std::int64_t end_to_end_total_ps = 0;
  std::uint64_t journeys = 0;    // completed (consumed) journeys
  std::uint64_t opened = 0;      // journeys started
  std::uint64_t aborted = 0;     // dropped / retransmitted / superseded
  std::uint64_t overflowed = 0;  // not tracked: open-set cap reached

  std::int64_t stage_sum_ps() const;
  double stage_mean_us(Stage stage) const;
  double end_to_end_mean_us() const;
};

/// Aligned text table of per-stage means; the end-to-end row is the exact
/// sum of the stage rows. Pass the independently measured latency (e.g.
/// NetPIPE's RTT/2) as `measured_us` to print a cross-check row; pass a
/// negative value to omit it.
std::string format_breakdown_table(const SpanBreakdown& b,
                                   double measured_us = -1.0);

/// Deterministic JSON rendering (fixed key order, integers for _ps totals,
/// shortest-round-trip doubles for the derived means).
std::string breakdown_json(const SpanBreakdown& b);

/// Follows individual data segments through the pipeline. Armed through
/// obs::Taps (core::Testbed::set_taps); every model hook is a no-op while
/// the taps' profiler is null.
class SpanProfiler {
 public:
  /// Most journeys tracked at once; begin() past the cap counts as
  /// overflowed instead.
  static constexpr std::size_t kMaxOpen = 4096;

  /// Called once per completed journey, in completion order, with the
  /// journey's flow, sending node and per-stage durations. The hook must not
  /// call back into the profiler.
  using JourneyHook = std::function<void(
      net::FlowId flow, net::NodeId src, const StageDurations& dur)>;

  /// Opens a journey for `pkt` (the first frame carrying a tracked write).
  /// `write_call`/`write_done` bound the app-write stage, `emitted` is when
  /// the segment left the TCP layer (closing the sockbuf stage). Ineligible
  /// packets (non-TCP, empty payload, SYN/FIN) are ignored.
  void begin(const net::Packet& pkt, sim::SimTime write_call,
             sim::SimTime write_done, sim::SimTime emitted);

  /// Charges the interval since the previous mark to the stage the journey
  /// is leaving, then enters `stage` at `at`. Unknown packets are ignored
  /// (e.g. TSO sub-frames after the first, or journeys opened before a
  /// reset()).
  void mark(const net::Packet& pkt, Stage stage, sim::SimTime at);

  /// Abandons the journey for `pkt` (drop, retransmission supersedes it).
  void abort(const net::Packet& pkt);

  /// Closes every open journey on `flow` from `src` whose payload lies
  /// entirely below `consumed_upto` (the receiver's cumulative consumed
  /// sequence): charges the final app-read interval and folds the journey
  /// into the aggregates.
  void finish_consumed(net::FlowId flow, net::NodeId src, net::Seq
                       consumed_upto, sim::SimTime at);

  /// Drops all aggregates *and* open journeys; used at a bench warmup
  /// boundary so the breakdown covers exactly the measured iterations. The
  /// journey hook stays set.
  void reset();

  /// Sets (or, with an empty function, clears) the completed-journey hook.
  void set_journey_hook(JourneyHook hook) { hook_ = std::move(hook); }

  SpanBreakdown breakdown() const;
  std::size_t open_journeys() const { return open_.size(); }

 private:
  struct Key {
    net::FlowId flow = 0;
    net::NodeId src = 0;
    net::Seq seq = 0;  // first payload byte
    bool operator<(const Key& o) const {
      if (flow != o.flow) return flow < o.flow;
      if (src != o.src) return src < o.src;
      return seq < o.seq;
    }
  };
  struct Journey {
    StageDurations dur{};
    sim::SimTime begin_at = 0;  // app_send() call time
    sim::SimTime last_at = 0;
    Stage last_stage = Stage::kAppWrite;
    std::uint32_t len = 0;  // payload bytes
  };

  static bool eligible(const net::Packet& pkt);
  void finish(const Key& key, Journey& j, sim::SimTime at);

  // std::map: deterministic iteration for finish_consumed()'s range scan.
  std::map<Key, Journey> open_;
  StageDurations stage_total_ps_{};
  std::int64_t end_to_end_total_ps_ = 0;
  std::uint64_t journeys_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t overflowed_ = 0;
  JourneyHook hook_;
};

}  // namespace xgbe::obs
