// Pluggable congestion control in Linux style: the congestion window is
// counted in whole segments, which is one half of the MSS-alignment
// phenomenon the paper analyses in §3.5.1 (the other half is the receiver's
// MSS-rounded advertised window).
//
// The base class IS the algorithm the paper measured — Linux-2.4
// Reno/NewReno — and stays directly instantiable so the default path is
// byte-identical to the pre-strategy implementation. Cubic and Dctcp
// override the growth/reduction hooks; everything is integer arithmetic so
// the simulator's bit-identical rerun invariant holds for every algorithm.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "sim/time.hpp"
#include "tcp/config.hpp"

namespace xgbe::tcp {

class CongestionControl {
 public:
  explicit CongestionControl(std::uint32_t initial_cwnd = 2)
      : cwnd_(initial_cwnd) {}
  virtual ~CongestionControl() = default;

  /// Congestion window in segments.
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  bool in_recovery() const { return in_recovery_; }

  /// A new cumulative ACK arrived covering `acked_segments` segments.
  /// `now` feeds time-based algorithms (CUBIC); Reno-family ignores it.
  void on_ack(std::uint32_t acked_segments, sim::SimTime now = 0);

  /// Third duplicate ACK: fast retransmit. `flight_segments` is the number
  /// of segments outstanding. Returns true if we entered recovery.
  bool on_fast_retransmit(std::uint32_t flight_segments);

  /// Additional duplicate ACK while in recovery (window inflation).
  void on_dupack_in_recovery() { ++inflation_; }

  /// Partial ACK during NewReno recovery (stay in recovery, deflate).
  void on_partial_ack();

  /// Recovery completed (ACK reached the recovery point).
  void on_recovery_exit();

  /// Retransmission timeout: collapse to one segment.
  void on_timeout(std::uint32_t flight_segments);

  /// One ECN feedback window closed: of `acked_segments` newly acknowledged
  /// segments, `marked_segments` carried ECE. Returns true when the sender
  /// reduced and must set CWR on the next data segment. The base class
  /// implements the classic RFC 3168 response (at most one multiplicative
  /// decrease per window); Dctcp overrides with the alpha-proportional cut.
  virtual bool on_ecn_window(std::uint32_t acked_segments,
                             std::uint32_t marked_segments, sim::SimTime now);

  /// Usable window in segments including recovery inflation, never past the
  /// clamp (inflation used to escape snd_cwnd_clamp; see ISSUE 9).
  std::uint32_t usable_cwnd() const {
    const std::uint32_t usable = cwnd_ + inflation_;
    return usable < clamp_ ? usable : clamp_;
  }

  /// Hard upper bound (snd_cwnd_clamp); used to model the flow-window cap
  /// trick of the WAN experiment when socket buffers bound the window.
  void set_clamp(std::uint32_t clamp) { clamp_ = clamp; }

  /// Stable algorithm name for logs and the WAN benches' congestion-state
  /// series.
  virtual const char* name() const { return "newreno"; }

  /// One algorithm-specific gauge for observability: CUBIC exports K (ms),
  /// DCTCP exports alpha (1/1024 fixed point), Reno-family exports 0.
  virtual std::int64_t state_gauge() const { return 0; }

 protected:
  /// Window growth outside recovery. The default is Reno: slow start below
  /// ssthresh, additive increase above. Linux clamp semantics: every ACKed
  /// segment is processed and `cwnd_cnt_` keeps cycling at the clamp — only
  /// the `++cwnd_` is suppressed (the pre-fix code returned early, freezing
  /// the accumulator mid-window and discarding the rest of the ACK).
  virtual void grow(std::uint32_t acked_segments, sim::SimTime now);

  /// Slow-start / loss-response threshold after a loss event; `cwnd_` still
  /// holds the pre-reduction window when this runs. Reno halves the flight.
  virtual std::uint32_t ssthresh_after_loss(std::uint32_t flight_segments);

  /// Loss event notification (fast retransmit, timeout, or classic ECN
  /// reduction) — runs after ssthresh_after_loss, before the window is cut.
  /// CUBIC resets its epoch here.
  virtual void on_loss_event() {}

  std::uint32_t cwnd_;
  std::uint32_t ssthresh_ = std::numeric_limits<std::uint32_t>::max() / 2;
  std::uint32_t cwnd_cnt_ = 0;  // CA accumulator (Linux snd_cwnd_cnt)
  std::uint32_t inflation_ = 0;
  std::uint32_t clamp_ = std::numeric_limits<std::uint32_t>::max() / 2;
  bool in_recovery_ = false;
};

/// CUBIC (RFC 8312) in Linux's fixed-point formulation: the window grows as
/// a cubic of wall-clock time since the last reduction, making growth
/// RTT-independent — and, relevant to §3.5.1, the target is NOT a multiple
/// of anything, so the fig8 MSS-alignment staircase disappears. Time is
/// measured in milliseconds; all arithmetic is 64-bit integer (beta and the
/// cube factor use Linux's 717/1024 and 410/2^40 constants), so reruns stay
/// bit-identical.
class Cubic : public CongestionControl {
 public:
  explicit Cubic(std::uint32_t initial_cwnd = 2)
      : CongestionControl(initial_cwnd) {}

  const char* name() const override { return "cubic"; }
  /// K in ms: time from epoch start to the pre-loss plateau.
  std::int64_t state_gauge() const override {
    return static_cast<std::int64_t>(k_ms_);
  }

 protected:
  void grow(std::uint32_t acked_segments, sim::SimTime now) override;
  std::uint32_t ssthresh_after_loss(std::uint32_t flight_segments) override;
  void on_loss_event() override { epoch_start_ = 0; }

 private:
  void update_cnt(sim::SimTime now);
  static std::uint64_t cube_root(std::uint64_t a);

  std::uint32_t last_max_cwnd_ = 0;  // W_max before the last reduction
  sim::SimTime epoch_start_ = 0;     // 0 = epoch not started (sentinel)
  std::uint32_t origin_cwnd_ = 0;    // plateau the cubic aims back at
  std::uint64_t k_ms_ = 0;           // K, in milliseconds
  std::uint32_t cnt_ = 1;            // ACKs per cwnd increment (>= 1)
};

/// DCTCP-style ECN-reactive sender: maintains a per-window estimate `alpha`
/// of the fraction of CE-marked segments (EWMA with gain 1/16, in 1/1024
/// fixed point) and, when a window saw any marks, cuts cwnd proportionally
/// (cwnd -= cwnd * alpha / 2) instead of halving. Loss handling is
/// inherited from NewReno, as in the real stack. Pair with an ECN-marking
/// switch AQM (link::AqmMode::kEcnThreshold) for the incast comparison.
class Dctcp : public CongestionControl {
 public:
  explicit Dctcp(std::uint32_t initial_cwnd = 2)
      : CongestionControl(initial_cwnd) {}

  const char* name() const override { return "dctcp"; }
  /// alpha in 1/1024 fixed point (1024 = every segment marked).
  std::int64_t state_gauge() const override {
    return static_cast<std::int64_t>(alpha_);
  }

  bool on_ecn_window(std::uint32_t acked_segments,
                     std::uint32_t marked_segments, sim::SimTime now) override;

 private:
  // Start pessimistic (alpha = 1) like Linux: the first marked window cuts
  // hard, then the EWMA converges to the true mark fraction.
  std::uint32_t alpha_ = 1024;
};

/// Builds the strategy for a config selection. `initial_cwnd` in segments.
std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgorithm alg, std::uint32_t initial_cwnd);

}  // namespace xgbe::tcp
