// Kernel runtime model: where TX/RX path costs are charged to host resources.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/host_fault.hpp"
#include "hw/system.hpp"
#include "net/packet.hpp"
#include "obs/taps.hpp"
#include "os/config.hpp"
#include "os/costs.hpp"
#include "sim/pool.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace xgbe::obs {
class Registry;
}

namespace xgbe::os {

/// Per-host kernel model.
///
/// Owns the host's CPU and memory-bus resources and charges the Linux 2.4
/// network path costs to them: syscalls and copies in process context on the
/// "app" CPU, interrupt and protocol processing on the IRQ CPU (the P4 Xeon
/// SMP kernel of the paper pins all NIC interrupts to a single CPU), with
/// the SMP kernel paying a locking/cache-bouncing multiplier. The
/// continuation-passing style keeps control flow inside the discrete-event
/// simulation: each method charges resource time and invokes the callback
/// when the modeled work completes.
class Kernel {
 public:
  // Completion continuations ride the event hot path, so they use the
  // simulator's allocation-free callback type; Deliver is invoked once per
  // packet through a shared copy and stays a std::function.
  using Done = sim::InlineCallback;
  using Deliver = std::function<void(const net::Packet&)>;

  Kernel(sim::Simulator& simulator, const hw::SystemSpec& spec,
         const KernelConfig& config);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Transmit path -------------------------------------------------------
  /// Application write entering the socket: syscall + skb allocations +
  /// copy_from_user of `payload_bytes` (split across `nsegs` segments of
  /// data blocks sized `seg_block_bytes` each).
  void app_write(std::uint64_t payload_bytes, int nsegs,
                 std::uint32_t seg_block_bytes, Done done);

  /// Per-segment TCP/IP transmit work ending with the doorbell PIO; `emit`
  /// runs when the segment has been handed to the adapter.
  void segment_tx(const net::Packet& pkt, Done emit);

  // --- Receive path --------------------------------------------------------
  /// Handles one NIC interrupt carrying `pkts` (already DMA'd to memory).
  /// `deliver` is invoked per packet once protocol processing finishes.
  /// `csum_offloaded` reflects the adapter's receive-checksum capability.
  /// The pooled-handle form is the adapter's hot path: per-packet
  /// continuations share the batch handle and a pooled Deliver copy, so an
  /// interrupt costs zero allocations in steady state.
  void rx_interrupt(net::PacketBatch pkts, bool csum_offloaded,
                    Deliver deliver);

  /// Convenience overload for direct callers (unit tests, tools): wraps the
  /// vector in a pooled batch.
  void rx_interrupt(std::vector<net::Packet> pkts, bool csum_offloaded,
                    Deliver deliver);

  /// Application read: syscall + copy_to_user of `payload_bytes`.
  void app_read(std::uint64_t payload_bytes, Done done);

  // --- Resources & reporting ----------------------------------------------
  sim::Resource& membus() { return membus_; }
  sim::Resource& irq_cpu() { return *cpus_.front(); }
  sim::Resource& app_cpu();

  /// Number of CPUs the kernel actually uses (1 for the UP kernel).
  int active_cpus() const;

  /// Approximates /proc/loadavg over the current window: utilization of the
  /// busiest CPU the kernel uses.
  double cpu_load() const;
  void mark_load_window();

  /// Frames dropped because the software checksum caught corruption.
  std::uint64_t csum_drops() const { return csum_drops_; }

  /// Arms (or clears) the host-path fault injector shared with the host's
  /// adapters. The kernel consults it for skb-allocation failures and
  /// scheduler pauses; null or inactive means zero behavioral change.
  void set_host_faults(fault::HostFaultInjector* injector) {
    host_faults_ = injector;
  }

  const KernelCosts& costs() const { return costs_; }
  const KernelConfig& config() const { return config_; }
  const hw::SystemSpec& system() const { return spec_; }

  // --- Observability --------------------------------------------------------
  /// Points the kernel at its shard's taps (null: obs::kNoTaps). Receive-path
  /// frame discards (failed skb allocation, software-checksum rejection)
  /// emit kSegDrop events tagged with `node` and abort their span journeys.
  void set_taps(const obs::Taps* taps, net::NodeId node) {
    taps_ = taps != nullptr ? taps : &obs::kNoTaps;
    trace_node_ = node;
  }

  /// Registers checksum-drop and CPU-load probes under `prefix`.
  void register_metrics(obs::Registry& reg, const std::string& prefix) const;

  /// Schedules `done` when both a CPU job and a memory-bus job complete;
  /// models a memcpy occupying core and bus simultaneously.
  void copy_job(sim::Resource& cpu, sim::SimTime cpu_cost,
                sim::SimTime bus_cost, Done&& done);

 private:
  double mode_factor() const { return costs_.mode_factor(config_.mode); }
  sim::SimTime per_packet_rx_cost(const net::Packet& pkt,
                                  bool csum_offloaded) const;
  bool host_faults_active() const {
    return host_faults_ != nullptr && host_faults_->active();
  }

  sim::Simulator& sim_;
  hw::SystemSpec spec_;
  KernelConfig config_;
  KernelCosts costs_;
  sim::Resource membus_;
  std::vector<std::unique_ptr<sim::Resource>> cpus_;
  sim::Pool<Deliver> deliver_pool_;
  net::PacketBatchPool batch_pool_;  // for the vector convenience overload
  std::uint64_t csum_drops_ = 0;
  fault::HostFaultInjector* host_faults_ = nullptr;
  const obs::Taps* taps_ = &obs::kNoTaps;
  net::NodeId trace_node_ = net::kInvalidNode;
};

}  // namespace xgbe::os
