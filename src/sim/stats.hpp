// Online statistics used throughout the experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#ifndef NDEBUG
#include <atomic>
#endif

namespace xgbe::sim {

/// Welford single-pass mean / variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Reservoir of samples with exact quantiles; suitable for the modest sample
/// counts produced by these experiments (latency sweeps, per-flow rates).
///
/// NOT thread-safe, not even for const calls: quantile() lazily builds a
/// mutable sorted cache. Under bench/parallel_sweep.hpp each sweep point
/// must own its own SampleSet; sharing one across worker threads is a data
/// race, and debug builds assert on any concurrent access. summary() reads
/// the samples in insertion order regardless of whether quantile() has run,
/// so its (order-sensitive) Welford result never depends on sort state.
class SampleSet {
 public:
  SampleSet() = default;
  // Copies transfer the samples only; the sorted cache is rebuilt on demand
  // and the debug-use canary starts fresh in the copy.
  SampleSet(const SampleSet& other) : samples_(other.samples_) {}
  SampleSet& operator=(const SampleSet& other) {
    samples_ = other.samples_;
    sorted_.clear();
    sorted_valid_ = false;
    return *this;
  }

  void add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  double quantile(double q) const;  // q in [0,1], linear interpolation
  double median() const { return quantile(0.5); }
  OnlineStats summary() const;

 private:
  std::vector<double> samples_;  // insertion order, never reordered
  mutable std::vector<double> sorted_;  // lazy cache for quantile()
  mutable bool sorted_valid_ = false;
#ifndef NDEBUG
  mutable std::atomic<int> in_use_{0};  // concurrent-access canary
#endif
  friend struct SampleSetUseGuard;
};

}  // namespace xgbe::sim
