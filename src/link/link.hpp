// Full-duplex point-to-point link (LAN fiber or WAN POS circuit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "link/device.hpp"
#include "net/packet.hpp"
#include "obs/taps.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::link {

enum class Framing : std::uint8_t {
  kEthernet,  // preamble + IFG + min-frame padding on the wire
  kPos        // packet-over-SONET: Ethernet framing replaced by PPP/HDLC
};

struct LinkSpec {
  double rate_bps = 10e9;  // 10GbE by default
  sim::SimTime propagation = sim::nsec(450);  // ~90 m of fiber
  Framing framing = Framing::kEthernet;
  /// For POS: payload fraction of the line rate left after SONET section/
  /// line/path overhead (87/90 columns minus path overhead ≈ 0.9596).
  double sonet_efficiency = 0.9596;
  /// Transmit-queue capacity per direction, bytes. 0 = unbounded (a host
  /// NIC never overruns its own wire; router circuits set a real limit).
  std::uint32_t queue_limit_bytes = 0;
  /// Independent random frame-loss probability (bit errors etc.).
  double loss_rate = 0.0;
  std::uint64_t loss_seed = 0x5eedULL;
  /// Opt-in per-direction observability: register_metrics() additionally
  /// exposes each direction's delivery/drop counters, backlog high-water
  /// marks, and the configured line rate (the "negotiated speed" a fleet
  /// doctor compares against its bundle). Off by default so pre-existing
  /// topologies keep byte-identical registry snapshots; the fabric builder
  /// turns it on.
  bool detail_metrics = false;
};

/// POS per-frame overhead: PPP/HDLC flag+address+control+protocol+FCS.
inline constexpr std::uint32_t kPosFrameOverheadBytes = 9;

/// Two independent serialization pipes (full duplex — 10GbE has no
/// half-duplex mode) with propagation delay, optional queue limit (tail
/// drop), and optional random loss.
///
/// Two construction modes:
///  - Classic: both directions schedule on one Simulator and deliver frames
///    through one event lane per direction on it — the original
///    single-threaded path, byte-identical to its pre-sharding behavior.
///  - Sharded: each direction lives on its transmitter's shard; deliveries
///    (including same-shard ones, so results cannot depend on the partition)
///    are buffered in per-direction exchange channels that the engine
///    commits at window barriers. All mutable per-frame state (counters,
///    backlog, fault RNG, trace sink) is per-direction, so the two shard
///    workers never share a cache line they write.
class Link {
 public:
  /// Both directions record into `taps` (see set_taps()).
  Link(sim::Simulator& simulator, const LinkSpec& spec, std::string name,
       const obs::Taps* taps = &obs::kNoTaps);

  /// Sharded-mode link between `shard_a` (the A side's shard) and `shard_b`.
  /// Registers one exchange channel per direction with the engine — link
  /// creation order therefore defines the cross-shard merge order and must
  /// be identical across runs (it is: topology construction is code). Each
  /// direction records into its transmitting shard's taps, so trace
  /// appends and span marks never cross threads.
  Link(sim::ShardedEngine& engine, std::size_t shard_a, std::size_t shard_b,
       const LinkSpec& spec, std::string name, const obs::Taps* taps_a,
       const obs::Taps* taps_b);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attaches endpoint devices. Either side may be set independently so
  /// switches can wire ports incrementally.
  void attach_a(NetDevice* a) { a_ = a; }
  void attach_b(NetDevice* b) { b_ = b; }
  NetDevice* a() const { return a_; }
  NetDevice* b() const { return b_; }

  /// Serializes `pkt` from side `from` toward the other side; the callback
  /// (optional) fires when serialization completes (transmitter freed),
  /// whether or not the frame was dropped.
  void transmit(const NetDevice* from, const net::Packet& pkt,
                sim::InlineCallback&& tx_done = nullptr);

  const LinkSpec& spec() const { return spec_; }
  const std::string& name() const { return name_; }
  std::uint64_t frames_delivered() const { return ab_.frames + ba_.frames; }
  std::uint64_t bytes_delivered() const { return ab_.bytes + ba_.bytes; }
  std::uint64_t drops_queue() const {
    return ab_.drops_queue + ba_.drops_queue;
  }

  // --- Per-direction accounting (from_a: the a->b direction) ----------------
  std::uint64_t frames_delivered(bool from_a) const {
    return (from_a ? ab_ : ba_).frames;
  }
  std::uint64_t bytes_delivered(bool from_a) const {
    return (from_a ? ab_ : ba_).bytes;
  }
  std::uint64_t drops_queue(bool from_a) const {
    return (from_a ? ab_ : ba_).drops_queue;
  }
  /// High-water mark of the direction's transmit backlog, bytes.
  std::uint32_t peak_backlog(bool from_a) const {
    return (from_a ? ab_ : ba_).peak_backlog;
  }
  std::uint64_t drops_random() const {
    return script_.counters().drops_uniform +
           ab_.own_script.counters().drops_uniform +
           ba_.own_script.counters().drops_uniform;
  }

  // --- Fault injection ------------------------------------------------------
  /// Installs `plan` on both directions (the reverse direction gets a
  /// decorrelated seed so loss on data and ACK paths is independent).
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Installs `plan` on one direction only (a->b when from_a); the other
  /// direction is left untouched. Directional plans are how the recovery
  /// tests black-hole ACKs without touching the data path.
  void set_fault_plan(const fault::FaultPlan& plan, bool from_a);

  fault::FaultInjector& fault_injector(bool from_a) {
    return from_a ? fault_ab_ : fault_ba_;
  }
  const fault::FaultInjector& fault_injector(bool from_a) const {
    return from_a ? fault_ab_ : fault_ba_;
  }

  /// Aggregate of the scripted/legacy injector and both directions.
  fault::FaultCounters fault_counters() const;

  /// Deprecated shim: forces the next `n` data-carrying frames (payload >
  /// 0) to be lost, whichever direction offers them first. The Table 1
  /// loss-recovery experiments predate the fault layer and still call
  /// this; new code should use fault_injector(from_a).inject_drops(n).
  /// Sharded links apply the drops to the a->b direction (the two
  /// directions no longer share an injector there).
  void inject_drops(int n) {
    (sharded_ ? ab_.own_script : script_).inject_drops(n);
  }

  std::uint64_t drops_forced() const {
    return script_.counters().drops_forced +
           ab_.own_script.counters().drops_forced +
           ba_.own_script.counters().drops_forced +
           fault_ab_.counters().drops_forced + fault_ba_.counters().drops_forced;
  }

  /// Bytes occupying the wire for one frame under this link's framing.
  std::uint32_t occupancy_bytes(const net::Packet& pkt) const;

  /// Serialization time of one frame on this link.
  sim::SimTime serialization_time(const net::Packet& pkt) const;

  /// Effective data rate (bits/s available to frames).
  double effective_rate_bps() const;

  /// Backlog queued for transmission from the given side, bytes.
  std::uint32_t backlog(const NetDevice* from) const;

  // --- Observability --------------------------------------------------------
  /// Points both directions at `taps` (null: obs::kNoTaps), replacing what
  /// the link was built with — tools::Capture arms a single wire this way.
  /// Every frame offered to the wire emits exactly one trace event: kWireTx
  /// when it serializes, or kWireDrop with the cause when it is lost. A
  /// frame that serializes marks the wire span stage; a drop aborts its
  /// journey.
  void set_taps(const obs::Taps* taps) {
    ab_.taps = ba_.taps = taps != nullptr ? taps : &obs::kNoTaps;
  }

  /// Registers this link's delivery and fault counters under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  /// One scheduled delivery: the frame plus its destination device,
  /// pool-recycled so steady-state delivery allocates nothing.
  struct DeliveryRec {
    net::Packet pkt;
    NetDevice* sink = nullptr;
  };

  struct Direction {
    Direction(sim::Simulator& simulator, const std::string& n)
        : sim(&simulator), pipe(simulator, n) {}
    sim::Simulator* sim;  // the transmitter's shard
    sim::Resource pipe;
    std::uint32_t backlog_bytes = 0;
    std::uint32_t peak_backlog = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops_queue = 0;
    // Which legacy/scripted injector this direction consults: the shared
    // `script_` in classic mode (both directions draw from one RNG, keeping
    // pre-fault-layer seeds bit-identical), `own_script` in sharded mode.
    fault::FaultInjector* script = nullptr;
    fault::FaultInjector own_script;
    const obs::Taps* taps = &obs::kNoTaps;
    bool use_channel = false;
    // Classic-mode deliveries: the lane (arrivals leave the pipe in order
    // and share one propagation delay) and the pools. Sharded deliveries
    // use the channel's lane and pool.
    sim::LaneId delivery_lane = 0;
    sim::Pool<DeliveryRec> delivery_pool;
    sim::Pool<sim::InlineCallback> cont_pool;
  };

  /// Exchange buffer for one direction of a sharded link. Appended to by
  /// the transmitting shard's worker during a window; drained by the engine
  /// at the barrier. The delivery pool is likewise alternately touched by
  /// the barrier thread (acquire at commit) and the destination shard's
  /// worker (release after delivery) — never concurrently, ordered by the
  /// engine's barrier mutex.
  class Channel final : public sim::ExchangeChannel {
   public:
    void bind(Link* link, bool forward, sim::Simulator* dst) {
      link_ = link;
      forward_ = forward;
      dst_ = dst;
      lane_ = dst->open_lane();
    }
    void push(sim::SimTime at, const net::Packet& pkt) {
      entries_.push_back({at, pkt});
    }

    std::size_t pending() const override { return entries_.size(); }
    sim::SimTime entry_time(std::size_t index) const override {
      return entries_[index].at;
    }
    void commit_entry(std::size_t index) override;
    void clear_window() override { entries_.clear(); }

   private:
    struct Pending {
      sim::SimTime at;
      net::Packet pkt;
    };
    Link* link_ = nullptr;
    bool forward_ = true;
    sim::Simulator* dst_ = nullptr;
    sim::LaneId lane_ = 0;  // on dst_; commits arrive in time order
    std::vector<Pending> entries_;
    sim::Pool<DeliveryRec> pool_;
  };

  LinkSpec spec_;
  std::string name_;
  bool sharded_ = false;
  NetDevice* a_ = nullptr;
  NetDevice* b_ = nullptr;
  Direction ab_;
  Direction ba_;
  Channel ab_channel_;
  Channel ba_channel_;
  // Shared by both directions in classic mode, like the pre-fault-layer
  // loss knob: carries the LinkSpec loss_rate/loss_seed plan plus deprecated
  // forced drops, and consumes RNG draws in transmit order so legacy seeds
  // stay bit-identical. Unused (counters all zero) in sharded mode.
  fault::FaultInjector script_;
  // Per-direction plans installed through set_fault_plan().
  fault::FaultInjector fault_ab_;
  fault::FaultInjector fault_ba_;
};

}  // namespace xgbe::link
