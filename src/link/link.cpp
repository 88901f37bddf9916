#include "link/link.hpp"

#include <cassert>

#include "net/headers.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace xgbe::link {

namespace {

fault::FaultPlan legacy_plan(const LinkSpec& spec) {
  fault::FaultPlan plan;
  plan.seed = spec.loss_seed;
  plan.loss_rate = spec.loss_rate;
  return plan;
}

// Reverse-direction decorrelation constant, same as set_fault_plan().
constexpr std::uint64_t kReverseSeedMix = 0x9e3779b97f4a7c15ULL;

}  // namespace

Link::Link(sim::Simulator& simulator, const LinkSpec& spec, std::string name,
           const obs::Taps* taps)
    : spec_(spec),
      name_(std::move(name)),
      ab_(simulator, name_ + "/ab"),
      ba_(simulator, name_ + "/ba"),
      script_(legacy_plan(spec)) {
  set_taps(taps);
  ab_.script = &script_;
  ba_.script = &script_;
  ab_.delivery_lane = simulator.open_lane();
  ba_.delivery_lane = simulator.open_lane();
}

Link::Link(sim::ShardedEngine& engine, std::size_t shard_a,
           std::size_t shard_b, const LinkSpec& spec, std::string name,
           const obs::Taps* taps_a, const obs::Taps* taps_b)
    : spec_(spec),
      name_(std::move(name)),
      sharded_(true),
      ab_(engine.shard(shard_a), name_ + "/ab"),
      ba_(engine.shard(shard_b), name_ + "/ba"),
      script_(legacy_plan(spec)) {
  // The two directions run on different threads, so the legacy loss plan
  // splits into per-direction injectors with decorrelated seeds (mirroring
  // set_fault_plan's forward/reverse split). The shared script_ stays idle.
  fault::FaultPlan forward = legacy_plan(spec);
  fault::FaultPlan reverse = forward;
  reverse.seed = forward.seed ^ kReverseSeedMix;
  ab_.own_script.set_plan(forward);
  ba_.own_script.set_plan(reverse);
  ab_.script = &ab_.own_script;
  ba_.script = &ba_.own_script;
  ab_.taps = taps_a;
  ba_.taps = taps_b;
  // Every delivery — same-shard ones included, so results cannot depend on
  // where hosts landed — goes through a barrier-committed channel. The
  // destination of a->b traffic is the B side's shard (where ba_ transmits
  // from) and vice versa.
  ab_.use_channel = true;
  ba_.use_channel = true;
  ab_channel_.bind(this, /*forward=*/true, ba_.sim);
  ba_channel_.bind(this, /*forward=*/false, ab_.sim);
  engine.register_channel(&ab_channel_);
  engine.register_channel(&ba_channel_);
}

void Link::set_fault_plan(const fault::FaultPlan& plan) {
  fault_ab_.set_plan(plan);
  fault::FaultPlan reverse = plan;
  reverse.seed = plan.seed ^ kReverseSeedMix;
  fault_ba_.set_plan(reverse);
}

void Link::set_fault_plan(const fault::FaultPlan& plan, bool from_a) {
  (from_a ? fault_ab_ : fault_ba_).set_plan(plan);
}

fault::FaultCounters Link::fault_counters() const {
  fault::FaultCounters total = script_.counters();
  total += ab_.own_script.counters();
  total += ba_.own_script.counters();
  total += fault_ab_.counters();
  total += fault_ba_.counters();
  return total;
}

std::uint32_t Link::occupancy_bytes(const net::Packet& pkt) const {
  if (spec_.framing == Framing::kEthernet) return pkt.wire_bytes();
  // POS: the IP packet is re-framed in PPP/HDLC; strip the Ethernet header
  // and CRC, add the POS overhead.
  const std::uint32_t eth_overhead =
      net::kEthHeaderBytes + net::kEthCrcBytes;
  const std::uint32_t ip_bytes = pkt.frame_bytes > eth_overhead
                                     ? pkt.frame_bytes - eth_overhead
                                     : pkt.frame_bytes;
  return ip_bytes + kPosFrameOverheadBytes;
}

double Link::effective_rate_bps() const {
  return spec_.framing == Framing::kPos
             ? spec_.rate_bps * spec_.sonet_efficiency
             : spec_.rate_bps;
}

sim::SimTime Link::serialization_time(const net::Packet& pkt) const {
  return sim::transfer_time(occupancy_bytes(pkt), effective_rate_bps());
}

std::uint32_t Link::backlog(const NetDevice* from) const {
  return from == a_ ? ab_.backlog_bytes : ba_.backlog_bytes;
}

void Link::Channel::commit_entry(std::size_t index) {
  NetDevice* sink = forward_ ? link_->b_ : link_->a_;
  if (sink == nullptr) return;
  // Conservative lookahead guarantees the arrival lands strictly past the
  // window the frame was transmitted in, so the destination clock has not
  // reached it yet; schedule_at never has to clamp.
  assert(entries_[index].at >= dst_->now());
  auto rec = pool_.acquire();
  rec->pkt = entries_[index].pkt;
  rec->sink = sink;
  dst_->schedule_in_lane(lane_, entries_[index].at,
                         [rec]() { rec->sink->deliver(rec->pkt); });
}

void Link::transmit(const NetDevice* from, const net::Packet& pkt,
                    sim::InlineCallback&& tx_done) {
  assert(from == a_ || from == b_);
  const bool forward = (from == a_);
  Direction& dir = forward ? ab_ : ba_;
  NetDevice* sink = forward ? b_ : a_;
  sim::Simulator& sim = *dir.sim;

  if (spec_.queue_limit_bytes != 0 &&
      dir.backlog_bytes + pkt.frame_bytes > spec_.queue_limit_bytes) {
    ++dir.drops_queue;
    if (dir.taps->trace) {
      dir.taps->trace->record_packet(obs::EventType::kWireDrop, sim.now(),
                                     pkt, name_.c_str(), "queue-full");
    }
    if (dir.taps->spans) dir.taps->spans->abort(pkt);
    if (tx_done) sim.schedule(0, std::move(tx_done));
    return;
  }

  dir.backlog_bytes += pkt.frame_bytes;
  if (dir.backlog_bytes > dir.peak_backlog) {
    dir.peak_backlog = dir.backlog_bytes;
  }
  const sim::SimTime ser = serialization_time(pkt);
  sim::SimTime done_at;
  if (tx_done) {
    // The continuation closes over a caller callback that can exceed the
    // inline buffer; park it in a pooled node so the hot path stays
    // allocation-free. The node is cleared after firing so whatever the
    // callback captured is released immediately, not at node reuse.
    auto cont = dir.cont_pool.acquire();
    *cont = std::move(tx_done);
    done_at = dir.pipe.submit(
        ser, [dirp = &dir, bytes = pkt.frame_bytes, cont]() {
          dirp->backlog_bytes =
              dirp->backlog_bytes > bytes ? dirp->backlog_bytes - bytes : 0;
          (*cont)();
          *cont = nullptr;
        });
  } else {
    done_at =
        dir.pipe.submit(ser, [dirp = &dir, bytes = pkt.frame_bytes]() {
          dirp->backlog_bytes =
              dirp->backlog_bytes > bytes ? dirp->backlog_bytes - bytes : 0;
        });
  }

  // Scripted/legacy injector first (forced drops + LinkSpec loss), then the
  // direction's own plan. A frame the script loses never reaches the
  // directional injector — it is already off the wire. In classic mode both
  // directions share one script RNG in transmit order; sharded mode uses
  // per-direction scripts so the draw sequence cannot depend on thread
  // interleaving.
  const sim::SimTime now = sim.now();
  fault::FaultDecision verdict = dir.script->decide(pkt, now);
  if (!verdict.drop) {
    fault::FaultInjector& dir_fault = forward ? fault_ab_ : fault_ba_;
    if (dir_fault.active()) {
      const fault::FaultDecision extra = dir_fault.decide(pkt, now);
      if (extra.drop) {
        verdict = extra;
      } else {
        verdict.corrupt = verdict.corrupt || extra.corrupt;
        verdict.duplicate = extra.duplicate;
        verdict.extra_delay = extra.extra_delay;
        verdict.duplicate_delay = extra.duplicate_delay;
      }
    }
  }
  // One trace event per frame, emitted after the verdict so drops carry
  // their cause. The sink consumes no randomness, so emission position
  // cannot perturb the fault RNG sequence.
  if (obs::TraceSink* trace = dir.taps->trace) {
    if (verdict.drop) {
      trace->record_packet(obs::EventType::kWireDrop, now, pkt, name_.c_str(),
                           fault::cause_name(verdict.cause));
    } else {
      trace->record_packet(obs::EventType::kWireTx, now, pkt, name_.c_str());
    }
  }
  // The wire stage opens here and accumulates per hop (pipe queueing +
  // serialization + propagation all land in it).
  if (obs::SpanProfiler* spans = dir.taps->spans) {
    if (verdict.drop) {
      spans->abort(pkt);
    } else {
      spans->mark(pkt, obs::Stage::kWire, now);
    }
  }
  if (verdict.drop) return;

  if (sink != nullptr) {
    ++dir.frames;
    dir.bytes += pkt.frame_bytes;
    net::Packet out = pkt;
    if (verdict.corrupt) out.corrupted = true;
    const sim::SimTime arrival =
        done_at + spec_.propagation + verdict.extra_delay;
    if (dir.use_channel) {
      Channel& channel = forward ? ab_channel_ : ba_channel_;
      channel.push(arrival, out);
      if (verdict.duplicate) {
        channel.push(arrival + verdict.duplicate_delay, out);
      }
    } else {
      auto rec = dir.delivery_pool.acquire();
      rec->pkt = out;
      rec->sink = sink;
      sim.schedule_in_lane(dir.delivery_lane, arrival,
                           [rec]() { rec->sink->deliver(rec->pkt); });
      if (verdict.duplicate) {
        auto dup = dir.delivery_pool.acquire();
        dup->pkt = out;
        dup->sink = sink;
        sim.schedule_in_lane(dir.delivery_lane,
                             arrival + verdict.duplicate_delay,
                             [dup]() { dup->sink->deliver(dup->pkt); });
      }
    }
  }
}

void Link::register_metrics(obs::Registry& reg,
                            const std::string& prefix) const {
  reg.counter(prefix + "/frames_delivered",
              [this] { return frames_delivered(); });
  reg.counter(prefix + "/bytes_delivered",
              [this] { return bytes_delivered(); });
  reg.counter(prefix + "/drops_queue", [this] { return drops_queue(); });
  // Aggregate of the scripted injector and both directional injectors.
  auto field = [&](const char* name,
                   std::uint64_t fault::FaultCounters::* member) {
    reg.counter(prefix + "/fault/" + name,
                [this, member] { return fault_counters().*member; });
  };
  field("frames_seen", &fault::FaultCounters::frames_seen);
  field("drops_forced", &fault::FaultCounters::drops_forced);
  field("drops_uniform", &fault::FaultCounters::drops_uniform);
  field("drops_burst", &fault::FaultCounters::drops_burst);
  field("drops_carrier", &fault::FaultCounters::drops_carrier);
  // Only plans that use the handshake-loss family expose its counter:
  // pre-existing plans keep byte-identical registry snapshots.
  if (fault_injector(true).plan().handshake_loss_rate > 0.0 ||
      fault_injector(false).plan().handshake_loss_rate > 0.0) {
    field("drops_handshake", &fault::FaultCounters::drops_handshake);
  }
  field("corruptions", &fault::FaultCounters::corruptions);
  field("duplicates", &fault::FaultCounters::duplicates);
  field("reorders", &fault::FaultCounters::reorders);
  field("flaps", &fault::FaultCounters::flaps);
  if (!spec_.detail_metrics) return;
  // Per-direction split plus the configured line rate: the fleet doctor's
  // inputs for direction attribution and negotiated-speed comparison.
  reg.gauge(prefix + "/rate_bps", [this] { return spec_.rate_bps; });
  const auto direction = [&](const char* tag, const Direction& dir) {
    const std::string p = prefix + "/" + tag;
    reg.counter(p + "/frames_delivered", [&dir] { return dir.frames; });
    reg.counter(p + "/bytes_delivered", [&dir] { return dir.bytes; });
    reg.counter(p + "/drops_queue", [&dir] { return dir.drops_queue; });
    reg.gauge(p + "/peak_backlog_bytes", [&dir] {
      return static_cast<double>(dir.peak_backlog);
    });
  };
  direction("ab", ab_);
  direction("ba", ba_);
}

}  // namespace xgbe::link
