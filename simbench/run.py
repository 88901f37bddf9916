#!/usr/bin/env python3
"""Simulator-speed benchmark: builds the simulator from source, runs one
workload for a time budget in its own process, checks every modeled output
and prints the metrics. See simbench/README.md.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Build and progress logs go to stderr; stdout carries a human-readable table
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "simbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("wan_record", "wan_overshoot", "lan_ladder", "fabric_mix")

# Set-up repetitions, process start and the last operation's overrun come on
# top of --seconds; a run that takes this much longer has hung.
RUN_GRACE_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary under .bench_build.
    Raises CalledProcessError when the sources are missing or do not
    compile."""
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", "4", "--target", "simbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def run_binary(workload, seed, seconds, trace, spans_path=None):
    """Runs one workload in a child process and returns its JSON records."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    # The engine's thread count is part of the workload definition.
    env = {k: v for k, v in os.environ.items() if k != "XGBE_SHARD_THREADS"}
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=sys.stderr, env=env, text=True,
                         timeout=seconds + RUN_GRACE_S)
    return [json.loads(line) for line in out.stdout.splitlines() if line]


def print_table(result, problems, detail, spans, seed, referenced):
    if not referenced:
        print("WARNING: no stored reference outputs for seed %d; only shard "
              "invariance, exact ledgers and rerun identity were checked (stored "
              "seeds are listed in simbench/README.md)" % seed)
    for problem in problems:
        print("FAILED", problem)
    attempted, failed = result["attempted"], result["failed"]
    print("fail_ratio %.6g (%d of %d simulation points failed)"
          % (failed / attempted, failed, attempted))
    for name, m in result["metrics"].items():
        line = "%-26s %-14.6g %s" % (name, m["value"], m["unit"])
        d = detail.get(name)
        if d is not None:
            line += "  (median of n=%d" % d["n"]
            if d["tail_p"] is not None:
                line += ", p%g %.6g" % (d["tail_p"], d["tail"])
            line += ")"
        print(line)
    if spans:
        print("traced self time per span (host s, summed over traced ops):")
        for name, secs in sorted(report.layer_self_times(spans).items(),
                                 key=lambda kv: -kv[1]):
            print("  %-18s %.6f" % (name, secs))
        profile = report.slice_profile(spans)
        if profile:
            print("sim.slice profile by tenth of each run's simulated time "
                  "(share of slice host time, host ns per event):")
            print("  " + "  ".join("%.0f%% %.0fns" % (100 * share, ns)
                                   for share, ns in profile))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    try:
        reference = json.loads(REFERENCE.read_text())
        build()
        spans_path = None
        if args.trace:
            spans_path = BUILD / "spans" / (
                "%s-seed%d.json" % (args.workload, args.seed))
            spans_path.parent.mkdir(parents=True, exist_ok=True)
        records = run_binary(args.workload, args.seed, args.seconds,
                             args.trace, spans_path)
        expected = report.expected_points(reference, args.workload, args.seed)
        result, problems, detail = report.summarize(records, args.trace,
                                                    expected)
        spans = []
        if spans_path is not None:
            with open(spans_path) as f:
                spans = json.load(f)["spans"]
    except (OSError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log("simbench: %s" % err)
        return 1

    if expected is None:
        log("simbench: WARNING: no stored reference for seed %d; checking "
            "only shard invariance, exact ledgers and rerun identity"
            % args.seed)
    print_table(result, problems, detail, spans, args.seed,
                expected is not None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
