#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace xgbe::sim {

#ifndef NDEBUG
/// Debug canary: flags concurrent use of one SampleSet (e.g. sharing a set
/// across bench/parallel_sweep.hpp workers). Every entry point takes the
/// guard; two overlapping holders mean a data race the sanitizers may miss.
struct SampleSetUseGuard {
  explicit SampleSetUseGuard(const SampleSet& s) : set(s) {
    const int prev = set.in_use_.fetch_add(1, std::memory_order_acq_rel);
    assert(prev == 0 && "SampleSet used concurrently (see class comment)");
    (void)prev;
  }
  ~SampleSetUseGuard() { set.in_use_.fetch_sub(1, std::memory_order_acq_rel); }
  const SampleSet& set;
};
#define XGBE_SAMPLESET_GUARD(s) SampleSetUseGuard guard_(s)
#else
#define XGBE_SAMPLESET_GUARD(s) (void)0
#endif

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::quantile(double q) const {
  XGBE_SAMPLESET_GUARD(*this);
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

OnlineStats SampleSet::summary() const {
  XGBE_SAMPLESET_GUARD(*this);
  // Welford accumulation is order-sensitive in floating point; samples_ is
  // never reordered, so this result is independent of quantile() calls.
  OnlineStats s;
  for (double x : samples_) s.add(x);
  return s;
}

}  // namespace xgbe::sim
