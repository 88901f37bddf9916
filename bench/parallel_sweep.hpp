// Cross-simulation parallelism for the paper-reproduction sweeps.
//
// Every figure bench is an embarrassingly parallel grid of *independent*
// simulations (payload sweeps, MTU ladders, ablation grids): each point
// builds its own Testbed with its own single-threaded deterministic
// Simulator, so points can run on worker threads with no shared mutable
// state. Results are committed into a vector indexed by point order, which
// makes the output independent of thread scheduling: a parallel sweep is
// bit-for-bit identical to a serial one.
//
// Thread count comes from XGBE_SWEEP_THREADS (0/unset = hardware
// concurrency); set it to 1 to force the serial path.
//
// timed_sweep also times each point inside its worker, so a benchmark row
// can report its own point's host time (UseManualTime + SetIterationTime)
// instead of charging the whole grid to whichever row computed it first.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace xgbe::bench {

/// Worker count for parallel_sweep: XGBE_SWEEP_THREADS if set and positive,
/// otherwise the hardware concurrency (at least 1).
inline unsigned sweep_threads() {
  if (const char* env = std::getenv("XGBE_SWEEP_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Runs `fn` over every point and returns the results in point order.
/// `fn` must be callable as `Result fn(const Point&)` and self-contained:
/// each call builds and runs its own simulation. With `nthreads <= 1` (or a
/// single point) the sweep runs serially on the calling thread; either way
/// results[i] corresponds to points[i], so thread scheduling can never
/// reorder or perturb the output. The first exception thrown by any point is
/// rethrown after all workers join.
template <typename Point, typename Fn>
auto parallel_sweep(const std::vector<Point>& points, Fn fn,
                    unsigned nthreads = 0)
    -> std::vector<std::invoke_result_t<Fn&, const Point&>> {
  using Result = std::invoke_result_t<Fn&, const Point&>;
  std::vector<Result> results(points.size());
  if (nthreads == 0) nthreads = sweep_threads();
  if (nthreads > points.size()) {
    nthreads = static_cast<unsigned>(points.size());
  }
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      results[i] = fn(points[i]);
    }
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> workers;
  workers.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= points.size() || failed.load(std::memory_order_relaxed)) {
          return;
        }
        try {
          results[i] = fn(points[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
  return results;
}

/// One sweep point's result and the host seconds its worker spent on it.
template <typename Result>
struct Timed {
  Result value{};
  double seconds = 0.0;
};

/// parallel_sweep with every point timed on the thread that computes it.
template <typename Point, typename Fn>
auto timed_sweep(const std::vector<Point>& points, Fn fn) {
  using Clock = std::chrono::steady_clock;
  using Result = std::invoke_result_t<Fn&, const Point&>;
  return parallel_sweep(points, [&fn](const Point& p) {
    const Clock::time_point t0 = Clock::now();
    Timed<Result> t{fn(p), 0.0};
    t.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return t;
  });
}

}  // namespace xgbe::bench
