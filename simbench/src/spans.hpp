// Host-time instrumentation for the simulator-speed benchmark.
//
// Everything here lives in the benchmark, outside the simulator: phases are
// timed around calls into the simulator's public API, and the only thing
// installed inside a run is a sim::TimeHook, which schedules no events, so
// every modeled output and executed-event count stays identical.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace simbench {

/// Host seconds on the steady clock since the first call in this process.
double host_now();

/// One recorded span. Slices (name "sim.slice") also carry the simulated
/// interval they cover and the events executed in it; other spans leave
/// those fields at -1 / 0.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span log, -1 for a root
  int run = 0;      // operation index within the benchmark run
  std::int64_t sim_start_ps = -1;
  std::int64_t sim_end_ps = -1;
  std::uint64_t events = 0;
};

/// Host seconds per phase of one operation: build, establish, run, snapshot,
/// ledger, teardown. Summed over every simulation point of the operation.
using Phases = std::map<std::string, double>;

/// In-memory span log, written out once at exit. Disabled, it records
/// nothing and costs one branch per phase.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const std::string& name, double start);
  void close(int id, double end);

  /// Records a completed sim.slice child of the innermost open span.
  void add_slice(double start, double end, std::int64_t sim_start_ps,
                 std::int64_t sim_end_ps, std::uint64_t events);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {"spans": [...]} as JSON; false on I/O failure.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one phase: adds its host seconds to `phases[phase]` and, when
/// tracing, records a span named `span` around it.
class Timed {
 public:
  Timed(Tracer& tracer, Phases& phases, const char* span, const char* phase);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer& tracer_;
  Phases& phases_;
  const char* phase_;
  double start_;
  int id_;
};

/// The sim.slice recorder: a time hook that, at every `interval` of
/// simulated time, records the host seconds and executed events since the
/// previous boundary. It only reads clocks and counters.
class SliceHook : public xgbe::sim::TimeHook {
 public:
  SliceHook(Tracer& tracer, xgbe::sim::SimTime start,
            xgbe::sim::SimTime interval,
            std::function<std::uint64_t()> executed_events);

  xgbe::sim::SimTime due() const override { return next_; }
  void advance(xgbe::sim::SimTime at) override;

 private:
  Tracer& tracer_;
  xgbe::sim::SimTime interval_;
  xgbe::sim::SimTime next_;
  std::function<std::uint64_t()> executed_events_;
  double last_host_;
  std::uint64_t last_events_;
};

}  // namespace simbench
