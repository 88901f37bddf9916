// The benchmark's four workloads. One call runs one operation: every
// simulation point of the workload once, timed phase by phase, with the
// modeled outputs of each point kept as exact text for the correctness
// check and the per-layer counters summed over the points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace simbench {

/// One simulation point: its modeled outputs (Gb/s, drops, fingerprints,
/// ...) rendered exactly, and the reason it failed a self-check (empty when
/// it completed, conserved its ledgers and, on fabric_mix, matched across
/// shard counts).
struct Point {
  std::string key;
  std::vector<std::pair<std::string, std::string>> outputs;
  std::string problem;
};

struct Op {
  std::vector<Point> points;
  Phases phases;                          // host seconds per phase
  std::map<std::string, double> counts;   // deterministic per-layer counts
  double wall_s = 0.0;
  double run_1shard_s = 0.0;  // fabric_mix: run phase at 1 and 2 shards
  double run_2shard_s = 0.0;
};

struct Context {
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;
  /// Set-up only: build the topologies and establish the connections of
  /// every point, then tear them down without running.
  bool setup_only = false;
  /// Run the 2-shard pass on two worker threads instead of inline on the
  /// caller's thread. Outputs are identical either way.
  bool threaded = false;
};

using WorkloadFn = Op (*)(Context&);

struct Workload {
  WorkloadFn run = nullptr;  // null for an unknown name
  /// Has a 2-shard pass, so Context::threaded changes how it runs.
  bool sharded = false;
};

Workload find_workload(const std::string& name);

}  // namespace simbench
