#include "os/kernel.hpp"

#include <algorithm>

#include "hw/memory.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "os/kmalloc.hpp"

namespace xgbe::os {

Kernel::Kernel(sim::Simulator& simulator, const hw::SystemSpec& spec,
               const KernelConfig& config)
    : sim_(simulator),
      spec_(spec),
      config_(config),
      costs_(KernelCosts::scaled_for(spec)),
      membus_(simulator, spec.name + "/membus") {
  const int ncpus =
      config_.mode == KernelMode::kUniprocessor ? 1 : spec_.cpu_count;
  cpus_.reserve(static_cast<std::size_t>(ncpus));
  for (int i = 0; i < ncpus; ++i) {
    cpus_.push_back(std::make_unique<sim::Resource>(
        simulator, spec.name + "/cpu" + std::to_string(i)));
  }
}

sim::Resource& Kernel::app_cpu() {
  // On an SMP kernel the benchmark process runs away from the IRQ CPU;
  // the UP kernel has only one CPU for everything.
  return cpus_.size() > 1 ? *cpus_[1] : *cpus_[0];
}

int Kernel::active_cpus() const { return static_cast<int>(cpus_.size()); }

void Kernel::copy_job(sim::Resource& cpu, sim::SimTime cpu_cost,
                      sim::SimTime bus_cost, Done&& done) {
  // The copy ends when the later of its two jobs does, so only that job
  // carries `done` and the earlier one schedules nothing. On a tie the
  // membus job, submitted second, carries it: `done` keeps the later of
  // the two completions' places in the (time, seq) order
  // (docs/architecture.md, "Scheduler internals").
  if (cpu.finish_if_submitted(cpu_cost) >
      membus_.finish_if_submitted(bus_cost)) {
    cpu.submit(cpu_cost, std::move(done));
    membus_.submit(bus_cost);
  } else {
    cpu.submit(cpu_cost);
    membus_.submit(bus_cost, std::move(done));
  }
}

void Kernel::app_write(std::uint64_t payload_bytes, int nsegs,
                       std::uint32_t seg_block_bytes, Done done) {
  if (host_faults_active()) {
    // A descheduled writer cannot enter the kernel until it runs again.
    const sim::SimTime resume = host_faults_->sched_resume_at(sim_.now());
    if (resume > sim_.now()) {
      host_faults_->count_sched_defer();
      sim_.schedule(resume - sim_.now(),
                    [this, payload_bytes, nsegs, seg_block_bytes,
                     done = std::move(done)]() mutable {
                      app_write(payload_bytes, nsegs, seg_block_bytes,
                                std::move(done));
                    });
      return;
    }
    // kmalloc under pressure: -ENOBUFS, the blocked writer backs off and
    // retries. Nothing is lost; the transfer just slows down.
    const std::uint32_t block =
        config_.header_splitting ? 256u : seg_block_bytes;
    if (host_faults_->alloc_fails(block, /*rx=*/false)) {
      sim_.schedule(host_faults_->plan().alloc_retry_backoff,
                    [this, payload_bytes, nsegs, seg_block_bytes,
                     done = std::move(done)]() mutable {
                      app_write(payload_bytes, nsegs, seg_block_bytes,
                                std::move(done));
                    });
      return;
    }
  }
  const double f = mode_factor();
  const auto nseg_t = static_cast<sim::SimTime>(std::max(nsegs, 1));
  if (config_.header_splitting) {
    // Zero-copy transmit: pin the user pages and build headers only; the
    // adapter DMAs payload straight from application memory.
    const auto fixed0 = static_cast<sim::SimTime>(
        static_cast<double>(costs_.syscall +
                            nseg_t * costs_.alloc_cost(256)) *
        f);
    app_cpu().submit(fixed0, std::move(done));
    return;
  }
  const sim::SimTime fixed = static_cast<sim::SimTime>(
      static_cast<double>(costs_.syscall +
                          nseg_t * costs_.alloc_cost(seg_block_bytes)) *
      f);
  const auto cpu_cost =
      fixed +
      static_cast<sim::SimTime>(
          static_cast<double>(hw::cpu_copy_time(spec_.memory, payload_bytes)) *
          costs_.tx_copy_factor);
  const auto bus_cost = static_cast<sim::SimTime>(
      static_cast<double>(hw::bus_time(spec_.memory, payload_bytes, 2)) *
      costs_.tx_copy_factor);
  copy_job(app_cpu(), cpu_cost, bus_cost, std::move(done));
}

void Kernel::segment_tx(const net::Packet& pkt, Done emit) {
  const double f = mode_factor();
  // Data segments go out from process context; pure ACKs are generated in
  // softirq context on the interrupt CPU (they must not queue behind the
  // reader's copy_to_user work) and carry no data to map or checksum.
  const bool softirq_ack =
      pkt.protocol == net::Protocol::kTcp && pkt.payload_bytes == 0;
  sim::SimTime cost =
      softirq_ack ? (costs_.tx_proto / 2 + costs_.tx_driver / 2 +
                     costs_.doorbell)
                  : (costs_.tx_proto + costs_.tx_driver + costs_.doorbell);
  if (pkt.tcp.timestamps) cost += costs_.timestamp_extra;
  cost = static_cast<sim::SimTime>(static_cast<double>(cost) * f);
  if (config_.mode == KernelMode::kSmp) cost += costs_.smp_bounce / 2;
  (softirq_ack ? irq_cpu() : app_cpu()).submit(cost, std::move(emit));
}

sim::SimTime Kernel::per_packet_rx_cost(const net::Packet& pkt,
                                        bool csum_offloaded) const {
  const double f = mode_factor();
  const bool pure_ack = pkt.payload_bytes == 0 && pkt.tcp.flags.ack &&
                        pkt.protocol == net::Protocol::kTcp;
  sim::SimTime cost = config_.rx_api == RxApi::kOldApi
                          ? costs_.rx_queue_oldapi
                          : costs_.rx_poll_napi;
  if (config_.header_splitting && !pure_ack) {
    // Direct data placement: the kernel touches only the header; the tiny
    // header skb comes from a small cache.
    cost += costs_.rx_proto / 2 + costs_.alloc_cost(256);
  } else {
    cost += pure_ack ? costs_.ack_rx : costs_.rx_proto;
    if (!pure_ack) {
      // Replacement skb allocation for the ring (power-of-2 block).
      cost += costs_.alloc_cost(kmalloc_block(pkt.frame_bytes + kSkbDataPad));
    }
  }
  if (pkt.tcp.timestamps) cost += costs_.timestamp_extra;
  if (!csum_offloaded && pkt.payload_bytes > 0) {
    cost += costs_.csum_per_byte *
            static_cast<sim::SimTime>(pkt.payload_bytes);
  }
  cost = static_cast<sim::SimTime>(static_cast<double>(cost) * f);
  if (config_.mode == KernelMode::kSmp) cost += costs_.smp_bounce;
  return cost;
}

void Kernel::rx_interrupt(std::vector<net::Packet> pkts, bool csum_offloaded,
                          Deliver deliver) {
  auto batch = batch_pool_.acquire();
  *batch = std::move(pkts);
  rx_interrupt(std::move(batch), csum_offloaded, std::move(deliver));
}

void Kernel::rx_interrupt(net::PacketBatch pkts, bool csum_offloaded,
                          Deliver deliver) {
  if (!pkts) return;
  // Interrupt entry/exit is mostly fixed hardware cost; the SMP kernel adds
  // only a mild penalty here (no shared socket state touched yet).
  const double entry_f = config_.mode == KernelMode::kSmp ? 1.2 : 1.0;
  const auto entry = static_cast<sim::SimTime>(
      static_cast<double>(costs_.irq_entry) * entry_f);
  irq_cpu().submit(entry);
  // Old API: all per-packet queueing happens in interrupt context, then
  // protocol processing follows on the same CPU (softirq affinity). NAPI
  // only schedules the poll from the interrupt; per-packet work is cheaper.
  // Either way the work serializes on the IRQ CPU, which is the point of
  // the paper's SMP observation. The per-packet continuations share the
  // pooled batch handle and a pooled Deliver copy (24 bytes of capture —
  // inline, no allocation), instead of the two make_shared the pre-pool
  // implementation paid per interrupt.
  const net::PacketBatch& shared = pkts;
  auto cb = deliver_pool_.acquire();
  *cb = std::move(deliver);
  for (std::size_t i = 0; i < shared->size(); ++i) {
    const net::Packet& pkt = (*shared)[i];
    // Host-path fault: no replacement skb for the ring slot — the driver
    // drops the frame and TCP retransmission recovers it. The failed
    // allocation attempt still burns IRQ-CPU time.
    if (host_faults_active() && pkt.payload_bytes > 0) {
      const std::uint32_t block =
          config_.header_splitting
              ? 256u
              : kmalloc_block(pkt.frame_bytes + kSkbDataPad);
      if (host_faults_->alloc_fails(block, /*rx=*/true)) {
        irq_cpu().submit(static_cast<sim::SimTime>(
            static_cast<double>(costs_.alloc_cost(block)) * mode_factor()));
        if (taps_->trace) {
          taps_->trace->record_packet(obs::EventType::kSegDrop, sim_.now(), pkt,
                                      "kernel", "alloc-fail");
        }
        if (taps_->spans) taps_->spans->abort(pkt);
        continue;
      }
    }
    const sim::SimTime cost = per_packet_rx_cost(pkt, csum_offloaded);
    // Power-of-2 allocation slack becomes real memory-bus traffic
    // (allocator stress, write-allocate on oversized blocks): this is why
    // an 8160-byte MTU (8 KB block, no slack) outruns 9000 (16 KB block,
    // ~7 KB slack) in Fig 5.
    if (pkt.payload_bytes > 0 && !config_.header_splitting) {
      const std::uint32_t block = kmalloc_block(pkt.frame_bytes + kSkbDataPad);
      const std::uint32_t slack = block - (pkt.frame_bytes + kSkbDataPad);
      const auto ghost = static_cast<std::uint64_t>(
          static_cast<double>(slack) * costs_.alloc_ghost_factor);
      if (ghost > 0) membus_.submit(hw::bus_time(spec_.memory, ghost, 1));
    }
    // Software checksumming (done on the host, after the data crossed the
    // buses) catches in-host corruption; adapter-offloaded checksums were
    // verified before the damage happened and let it through (§3.5.3).
    if (!csum_offloaded && pkt.corrupted) {
      ++csum_drops_;
      irq_cpu().submit(cost);  // the verify work is still spent
      if (taps_->trace) {
        taps_->trace->record_packet(obs::EventType::kSegDrop, sim_.now(), pkt,
                                    "kernel", "csum");
      }
      if (taps_->spans) taps_->spans->abort(pkt);
      continue;
    }
    irq_cpu().submit(cost, [shared, cb, i]() { (*cb)((*shared)[i]); });
  }
}

void Kernel::app_read(std::uint64_t payload_bytes, Done done) {
  if (host_faults_active()) {
    // A descheduled reader stops draining the socket: the receive buffer
    // fills, the advertised window closes, and the peer's persist probes
    // take over until the process runs again.
    const sim::SimTime resume = host_faults_->sched_resume_at(sim_.now());
    if (resume > sim_.now()) {
      host_faults_->count_sched_defer();
      sim_.schedule(resume - sim_.now(),
                    [this, payload_bytes, done = std::move(done)]() mutable {
                      app_read(payload_bytes, std::move(done));
                    });
      return;
    }
  }
  const double f = mode_factor();
  const auto fixed =
      static_cast<sim::SimTime>(static_cast<double>(costs_.syscall) * f);
  if (config_.header_splitting) {
    // Payload already sits in application memory; the read only returns.
    sim_.schedule(costs_.wakeup, [this, fixed, done = std::move(done)]() mutable {
      app_cpu().submit(fixed, std::move(done));
    });
    return;
  }
  const auto cpu_cost =
      fixed +
      static_cast<sim::SimTime>(
          static_cast<double>(hw::cpu_copy_time(spec_.memory, payload_bytes)) *
          costs_.rx_copy_factor);
  const auto bus_cost = static_cast<sim::SimTime>(
      static_cast<double>(hw::bus_time(spec_.memory, payload_bytes, 2)) *
      costs_.rx_copy_factor);
  // The blocked reader must first be woken and scheduled; that latency is
  // dead time, not CPU load.
  sim_.schedule(costs_.wakeup, [this, cpu_cost, bus_cost,
                                done = std::move(done)]() mutable {
    copy_job(app_cpu(), cpu_cost, bus_cost, std::move(done));
  });
}

double Kernel::cpu_load() const {
  double load = 0.0;
  for (const auto& cpu : cpus_) load = std::max(load, cpu->utilization());
  return load;
}

void Kernel::mark_load_window() {
  for (auto& cpu : cpus_) cpu->mark_window();
  membus_.mark_window();
}

void Kernel::register_metrics(obs::Registry& reg,
                              const std::string& prefix) const {
  reg.counter(prefix + "/csum_drops", [this] { return csum_drops_; });
  reg.gauge(prefix + "/cpu_load", [this] { return cpu_load(); });
}

}  // namespace xgbe::os
