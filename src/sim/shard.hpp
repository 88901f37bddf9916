// Sharded parallel event engine: conservative-lookahead windows over
// per-shard Simulators.
//
// The topology is partitioned into shards, each owning a private Simulator
// (event queue + clock) whose components never touch another shard's state.
// The engine advances all shards in lockstep windows of width L, the
// lookahead — the minimum propagation delay over all cross-shard links. A
// window [W, W+L) is safe to execute concurrently because any event one
// shard creates for another is a frame crossing a link: it cannot arrive
// earlier than serialization (>= 1 ps; transfer_time rounds up) plus that
// link's propagation (>= L), i.e. strictly after the window edge. This is
// the classic conservative null-message/window scheme, with the global
// barrier playing the role of the null messages.
//
// Cross-shard events never touch a foreign event queue directly. Each link
// direction that crosses a shard boundary appends pending deliveries to its
// own ExchangeChannel buffer (single-writer: only the transmitting shard's
// worker touches it inside a window). At the barrier the engine commits all
// buffered entries into their destination queues in a fixed merge order —
// (timestamp, channel id, per-channel append index) — where channel ids are
// assigned in topology construction order. Every key in that order is
// independent of how hosts were partitioned and of the thread count, so the
// committed schedule, and therefore the whole simulation, is bit-identical
// for any shard/thread count, including one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xgbe::sim {

/// Deterministic buffer of events crossing a shard boundary. The
/// transmitting shard appends entries during a window; the engine drains the
/// buffer at the barrier, committing entries into the destination shard's
/// queue in global merge order. Implementations keep entries in append
/// order; `index` in commit_entry() refers to that order.
class ExchangeChannel {
 public:
  virtual ~ExchangeChannel() = default;

  /// Entries appended during the window just executed.
  virtual std::size_t pending() const = 0;

  /// Scheduled (destination) time of entry `index`.
  virtual SimTime entry_time(std::size_t index) const = 0;

  /// Schedules entry `index` into the destination shard's event queue.
  /// Called only between windows, in global merge order.
  virtual void commit_entry(std::size_t index) = 0;

  /// Discards the window's entries after they were all committed.
  virtual void clear_window() = 0;
};

/// Engine-level watchdog options; mirrors sim::Watchdog::Options. The engine
/// watchdog is evaluated at window barriers (not via scheduled events), so
/// arming it perturbs nothing: armed runs are bit-identical to unarmed.
struct EngineWatchdogOptions {
  /// Committed simulated time between checks.
  SimTime interval = msec(100);
  /// Consecutive no-progress checks before the watchdog trips.
  int stalled_ticks = 10;
};

/// Runs N shard Simulators under conservative lookahead with barrier-
/// committed exchange channels. Deterministic for any shard/thread count.
class ShardedEngine {
 public:
  explicit ShardedEngine(std::size_t shard_count);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  ~ShardedEngine();

  std::size_t shard_count() const { return shards_.size(); }
  Simulator& shard(std::size_t i) { return *shards_[i]; }
  const Simulator& shard(std::size_t i) const { return *shards_[i]; }

  /// Registers a channel; ids are assigned in call order, which must follow
  /// topology construction order (it is part of the merge order, so it must
  /// not depend on the partition). Returns the channel id.
  std::uint32_t register_channel(ExchangeChannel* channel);

  /// Sets the lookahead (window width). Must be <= the minimum propagation
  /// delay over all cross-shard links; Testbed computes it as the minimum
  /// over ALL links, which is always safe. Clamped to >= 1 ps.
  void set_lookahead(SimTime lookahead);
  SimTime lookahead() const { return lookahead_; }

  /// Worker threads for window execution. 0 or 1 runs shards inline on the
  /// caller's thread; results are identical either way. The XGBE_SHARD_THREADS
  /// environment variable, when set, overrides this at first run.
  void set_threads(unsigned threads);
  unsigned threads() const { return threads_; }

  /// Runs until every shard drains or a stop is requested (engine stop() or
  /// any shard's Simulator::stop(), e.g. a per-shard watchdog tripping).
  void run() { run_until(std::numeric_limits<SimTime>::max()); }

  /// Runs windows until `horizon` (inclusive for events at exactly
  /// `horizon`). Advances every shard clock to `horizon` when the event
  /// supply ends early, mirroring Simulator::run_until.
  void run_until(SimTime horizon);

  /// Requests that run() return at the next barrier.
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  /// True when the last run ended on a stop (engine or any shard).
  bool stopped() const { return stopped_; }

  /// Committed global time (== horizon after a completed run_until).
  SimTime now() const { return now_; }

  /// Sum of events executed across all shards.
  std::uint64_t executed_events() const;

  /// Lookahead windows executed so far.
  std::uint64_t windows() const { return windows_; }

  /// Cross-shard events committed through exchange channels so far.
  std::uint64_t exchanged() const { return exchanged_; }

  // --- Engine watchdog ------------------------------------------------------
  // The per-shard sim::Watchdog ticks via scheduled events, which would
  // perturb the window schedule and race the shard it did not run on. The
  // engine-level watchdog instead evaluates progress counters at barriers
  // whenever committed time crosses an interval boundary: zero events, zero
  // perturbation, single-threaded evaluation.

  /// Registers a monotonic progress counter (may read any shard's state —
  /// evaluated only between windows).
  void watch_progress(std::string name, std::function<std::uint64_t()> fn);

  /// Registers a diagnostic context provider, evaluated only on trip.
  void add_trip_context(std::string name, std::function<std::string()> fn);

  void arm_watchdog(EngineWatchdogOptions options = {});
  void disarm_watchdog() { watchdog_armed_ = false; }
  bool watchdog_armed() const { return watchdog_armed_; }
  bool tripped() const { return tripped_; }
  const std::string& diagnosis() const { return diagnosis_; }

  /// Invoked once when the watchdog trips, after the diagnosis is set.
  std::function<void(const std::string&)> on_trip;

  // --- Barrier time hook ----------------------------------------------------
  /// Arms a boundary hook (null disarms), evaluated at window barriers like
  /// the engine watchdog: the hook fires after a window's exchange commit,
  /// single-threaded, once committed time reaches its due boundary — so it
  /// may read any shard's state, schedules nothing, and armed runs stay
  /// bit-identical to unarmed (executed-event counts included). The barrier
  /// sequence depends only on committed time and the lookahead, both
  /// partition-invariant, so hook observations are identical for any
  /// shard/thread count.
  void set_time_hook(TimeHook* hook) { hook_ = hook; }
  TimeHook* time_hook() const { return hook_; }

 private:
  struct ProgressCounter {
    std::string name;
    std::function<std::uint64_t()> fn;
    std::uint64_t last = 0;
    bool primed = false;
  };
  struct TripContext {
    std::string name;
    std::function<std::string()> fn;
  };
  // Merge key for one buffered exchange entry; (channel, index) is unique,
  // so the order is total and partition-invariant.
  struct CommitKey {
    SimTime at;
    std::uint32_t channel;
    std::uint32_t index;
  };

  /// Earliest pending event time across shards (SimTime max when drained).
  SimTime global_next_event_time();

  /// Executes one window: every shard runs to `edge_inclusive`.
  void execute_window(SimTime edge_inclusive);

  /// Commits all buffered channel entries in merge order.
  void commit_exchange();

  /// Evaluates the watchdog for every interval boundary crossed when
  /// committed time reaches `committed`. Returns false when it tripped.
  bool check_watchdog(SimTime committed);
  void trip(std::string why);

  void start_workers();
  void stop_workers();
  void worker_loop();

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<ExchangeChannel*> channels_;
  SimTime lookahead_ = 1;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::atomic<bool> stop_requested_{false};
  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
  std::vector<CommitKey> commit_order_;  // scratch, reused across barriers

  // Worker pool (generation-counted barrier). Workers claim shards with an
  // atomic ticket; all other shared state is handed over under the mutex,
  // which is what makes the scheme ThreadSanitizer-clean.
  unsigned threads_ = 0;          // 0 = resolve at first run
  bool threads_resolved_ = false;
  std::vector<std::thread> workers_;
  std::mutex pool_mutex_;
  std::condition_variable pool_work_cv_;
  std::condition_variable pool_done_cv_;
  std::uint64_t pool_generation_ = 0;
  SimTime pool_edge_ = 0;
  std::atomic<std::size_t> pool_next_shard_{0};
  std::size_t pool_done_ = 0;
  bool pool_quit_ = false;

  TimeHook* hook_ = nullptr;

  // Watchdog state.
  bool watchdog_armed_ = false;
  bool tripped_ = false;
  EngineWatchdogOptions watchdog_options_;
  SimTime next_check_ = 0;
  int stalled_ = 0;
  std::vector<ProgressCounter> progress_;
  std::vector<TripContext> contexts_;
  std::string diagnosis_;
};

}  // namespace xgbe::sim
