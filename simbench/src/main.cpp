// simbench: runs one workload of the simulator-speed benchmark for a time
// budget and prints one JSON record per line — one per operation, one per
// set-up-only repetition, and a closing record with the process's peak
// resident memory. run.py builds this binary, aggregates the records and
// checks the modeled outputs against the stored reference.
//
//   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <path>]
//
// With --trace 1, operations cycle untraced / traced / threaded. Traced ones
// record spans (written to --spans at exit) and sim.slice children from a
// time hook, and otherwise run exactly as untraced ones do. Threaded ones,
// only on a workload with a 2-shard pass, run that pass on two worker
// threads and feed sim.shard_speedup alone.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using simbench::Op;

enum class Mode { kUntraced, kTraced, kThreaded };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kTraced:
      return "traced";
    case Mode::kThreaded:
      return "threaded";
    default:
      return "untraced";
  }
}

// setup_s is the median over set-up-only repetitions (build every topology
// and establish every connection of one operation, then tear down). They run
// in bursts of up to kSetupBurstS before the first operation and after every
// operation, so the median spans the whole run rather than one moment of
// it, and are topped up to kMinSetupReps at the end.
constexpr int kMinSetupReps = 9;
constexpr int kMaxBurstReps = 200;
constexpr double kSetupBurstS = 0.05;

void print_map(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [key, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", key.c_str(), value);
    first = false;
  }
  std::putchar('}');
}

void print_op(const Op& op, int index, Mode mode) {
  std::printf(
      "{\"kind\":\"op\",\"index\":%d,\"mode\":\"%s\",\"wall_s\":%.9f,",
      index, mode_name(mode), op.wall_s);
  std::printf("\"run_1shard_s\":%.9f,\"run_2shard_s\":%.9f,\"phases\":",
              op.run_1shard_s, op.run_2shard_s);
  print_map(op.phases);
  std::printf(",\"counts\":");
  print_map(op.counts);
  std::printf(",\"points\":[");
  for (std::size_t i = 0; i < op.points.size(); ++i) {
    const simbench::Point& p = op.points[i];
    std::printf("%s{\"key\":\"%s\",\"problem\":\"%s\",\"outputs\":{",
                i == 0 ? "" : ",", p.key.c_str(),
                xgbe::obs::json_escape(p.problem).c_str());
    for (std::size_t j = 0; j < p.outputs.size(); ++j) {
      std::printf("%s\"%s\":\"%s\"", j == 0 ? "" : ",",
                  p.outputs[j].first.c_str(), p.outputs[j].second.c_str());
    }
    std::printf("}}");
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

double setup_seconds(const Op& op) {
  double s = 0.0;
  for (const char* phase : {"build", "establish"}) {
    const auto it = op.phases.find(phase);
    if (it != op.phases.end()) s += it->second;
  }
  return s;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  unsigned long long seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else if (std::strcmp(flag, "--spans") == 0) {
      spans_path = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return usage("flag without a value");
  const simbench::Workload w = simbench::find_workload(workload);
  if (w.run == nullptr) return usage("unknown workload");
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage("need --seconds > 0 and --trace 0 or 1");
  }

  simbench::Tracer untraced(false);
  simbench::Tracer traced(trace == 1);
  int setup_reps = 0;
  const auto setup_burst = [&](int min_reps, double budget_s) {
    const double t0 = simbench::host_now();
    for (int n = 0; n < kMaxBurstReps; ++n) {
      if (n >= min_reps && simbench::host_now() - t0 > budget_s) break;
      simbench::Context ctx;
      ctx.seed = seed;
      ctx.tracer = &untraced;
      ctx.setup_only = true;
      const Op op = w.run(ctx);
      std::printf("{\"kind\":\"setup\",\"setup_s\":%.9f}\n",
                  setup_seconds(op));
      ++setup_reps;
    }
  };
  const double start = simbench::host_now();
  setup_burst(1, kSetupBurstS);
  double last_wall = 0.0;
  int ops = 0;
  // The run needs at least one operation of every mode in its cycle. Beyond
  // that, an operation starts only if it is expected (from the previous one)
  // to finish inside the budget.
  std::vector<Mode> cycle = {Mode::kUntraced};
  if (trace == 1) cycle.push_back(Mode::kTraced);
  if (trace == 1 && w.sharded) cycle.push_back(Mode::kThreaded);
  const int min_ops = static_cast<int>(cycle.size());
  for (;;) {
    const double elapsed = simbench::host_now() - start;
    if (ops >= min_ops && elapsed + last_wall > seconds) break;
    const Mode mode = cycle[static_cast<std::size_t>(ops) % cycle.size()];
    simbench::Tracer& tracer = mode == Mode::kTraced ? traced : untraced;
    tracer.set_run(ops);
    simbench::Context ctx;
    ctx.seed = seed;
    ctx.tracer = &tracer;
    ctx.threaded = mode == Mode::kThreaded;
    const Op op = w.run(ctx);
    print_op(op, ops, mode);
    last_wall = op.wall_s;
    ++ops;
    setup_burst(1, kSetupBurstS);
  }
  setup_burst(kMinSetupReps - setup_reps, 0.0);

  if (trace == 1 && !spans_path.empty() &&
      !traced.write_json(spans_path, workload, seed)) {
    std::fprintf(stderr, "simbench: cannot write spans to %s\n",
                 spans_path.c_str());
    return 1;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"kind\":\"end\",\"peak_rss_kb\":%ld,\"spans\":%zu}\n",
              ru.ru_maxrss, traced.spans().size());
  return 0;
}
