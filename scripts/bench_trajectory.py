#!/usr/bin/env python3
"""Records the simulator's performance trajectory in BENCH_<PR>.json.

Each performance change commits one such file at the repo root, so the
simulator's speed can be read across changes from files instead of prose.
One record holds:

  - every bench binary of a build tree, run once: its wall seconds, its
    peak RSS, and its executed events where the bench reports an
    ``events`` counter in its ``--json`` log (only ``sim_core`` does
    today; benches built on plain BENCHMARK_MAIN() take no ``--json``);
  - the ``run_s`` median of each simbench workload, from one untraced run
    at a fixed seed and length, both written into the record;
  - the git rev of the checkout.

A bench's peak RSS is null when it stayed below this script's own: Linux
carries the forking process's RSS high-water mark into the child across
exec, so the child's ``ru_maxrss`` says nothing about peaks under it.

Wall-clock values are a record, never a gate: nothing here compares them
with anything.

    python3 scripts/bench_trajectory.py --build build --pr <N>
    python3 scripts/bench_trajectory.py --self-test

Build the tree with optimizations (``-DCMAKE_BUILD_TYPE=Release``) first;
simbench builds its own binary. Stdlib only.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "xgbe-trajectory/1"
SIMBENCH_WORKLOADS = ("wan_record", "wan_overshoot", "lan_ladder",
                      "fabric_mix")
# Every record runs simbench the same way, so records stay comparable; the
# length is the benchmark's own (BENCHMARK.json run_seconds).
SIMBENCH_SEED = 0
SIMBENCH_SECONDS = 25


def bench_events(log):
    """Executed events a bench log reports: the sum of its points' `events`
    counters, or None when no point has one."""
    values = [p["counters"]["events"] for p in log.get("points", [])
              if "events" in p.get("counters", {})]
    return int(sum(values)) if values else None


def simbench_run_s(stdout):
    """The run_s median from simbench/run.py's stdout, whose last line is
    its JSON result. Raises ValueError when the run was not correct."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("simbench printed no result")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        raise ValueError("simbench reported incorrect outputs: %r" % result)
    return float(result["metrics"]["run_s"]["value"])


def run_measured(cmd):
    """Runs `cmd` to completion; returns (returncode, wall seconds, peak RSS
    in MB or None when the child's peak did not rise above this script's,
    which it inherits across exec)."""
    floor_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, peak_rss_mb(usage.ru_maxrss, floor_kb)


def peak_rss_mb(maxrss_kb, floor_kb):
    """A child's ru_maxrss in MB, or None when it is not above `floor_kb`."""
    return round(maxrss_kb / 1024.0, 1) if maxrss_kb > floor_kb else None


def takes_json(source_text):
    """Whether a bench's source builds its main() with XGBE_BENCH_MAIN(),
    the one that accepts ``--json``."""
    return "XGBE_BENCH_MAIN()" in source_text


def bench_binaries(build):
    bench_dir = Path(build) / "bench"
    return sorted(p for p in bench_dir.iterdir()
                  if p.is_file() and os.access(p, os.X_OK))


def measure_benches(build):
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for binary in bench_binaries(build):
            source = ROOT / "bench" / (binary.name + ".cpp")
            log_path = Path(tmp) / (binary.name + ".json")
            cmd = [str(binary)]
            if source.exists() and takes_json(source.read_text()):
                cmd += ["--json", str(log_path)]
            code, wall, rss = run_measured(cmd)
            row = {"wall_s": round(wall, 3), "peak_rss_mb": rss,
                   "events": None, "exit_code": code}
            if log_path.exists():
                row["events"] = bench_events(json.loads(log_path.read_text()))
            rows[binary.name] = row
            print("%-28s %7.2f s %s MB" % (binary.name, wall, rss),
                  file=sys.stderr)
    return rows


def measure_simbench():
    medians = {}
    for workload in SIMBENCH_WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(ROOT / "simbench" / "run.py"),
             "--workload", workload, "--seed", str(SIMBENCH_SEED),
             "--seconds", str(SIMBENCH_SECONDS), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        medians[workload] = simbench_run_s(out.stdout)
        print("simbench %-16s run_s %.4f" % (workload, medians[workload]),
              file=sys.stderr)
    return {"seed": SIMBENCH_SEED, "seconds": SIMBENCH_SECONDS,
            "run_s": medians}


def git_rev():
    """HEAD's rev, and whether the measured tree had uncommitted changes (a
    record committed with its change is measured on top of its parent)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True).stdout
    return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain"))


def make_record(pr, rev, dirty, benches, simbench, host):
    return {"schema": SCHEMA, "pr": pr, "git_rev": rev, "dirty": dirty,
            "host": host, "benches": benches, "simbench": simbench}


def self_test():
    log = {"schema": "xgbe-bench/4", "binary": "sim_core", "points": [
        {"name": "SimCore_Cluster/hosts:1/shards:1",
         "counters": {"events": 1200.0, "windows": 0}},
        {"name": "SimCore_Cluster/hosts:8/shards:2",
         "counters": {"events": 34.0, "windows": 7}}]}
    assert bench_events(log) == 1234
    assert bench_events({"points": [{"name": "x", "counters": {}}]}) is None
    assert bench_events({"points": []}) is None

    assert takes_json("#include \"bench/common.hpp\"\nXGBE_BENCH_MAIN();\n")
    assert not takes_json("#include \"bench/common.hpp\"\nBENCHMARK_MAIN();\n")
    assert peak_rss_mb(31832, 10240) == 31.1
    assert peak_rss_mb(10240, 10240) is None
    code, wall, _ = run_measured([sys.executable, "-c", "pass"])
    assert code == 0 and wall > 0

    good = ("wan_overshoot table...\n"
            + json.dumps({"correct": True, "attempted": 12, "failed": 0,
                          "metrics": {"run_s": {"value": 0.27,
                                                "unit": "s"}}}) + "\n")
    assert simbench_run_s(good) == 0.27
    for bad in ("", json.dumps({"correct": False, "failed": 1,
                                "metrics": {}})):
        try:
            simbench_run_s(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("accepted %r" % bad)

    simbench = {"seed": SIMBENCH_SEED, "seconds": SIMBENCH_SECONDS,
                "run_s": {"wan_overshoot": 0.27}}
    record = make_record(7, "abc123", False, {"sim_core": {"wall_s": 1.0}},
                         simbench, {"cpus": 4})
    assert json.loads(json.dumps(record)) == record
    assert record["schema"] == SCHEMA
    print("bench_trajectory self-test: ok")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true",
                        help="check the parsers on fixtures; runs no bench")
    parser.add_argument("--build", default="build",
                        help="build tree holding bench/ (default: build)")
    parser.add_argument("--pr", type=int, help="change number for the name")
    args = parser.parse_args(argv)
    if args.self_test:
        self_test()
        return 0
    if args.pr is None:
        parser.error("--pr is required unless --self-test")
    benches = measure_benches(args.build)
    simbench = measure_simbench()
    host = {"cpus": os.cpu_count(), "platform": sys.platform}
    record = make_record(args.pr, *git_rev(), benches, simbench, host)
    out = ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote", out, file=sys.stderr)
    failed = sorted(name for name, row in benches.items() if row["exit_code"])
    if failed:
        print("benches exited non-zero:", ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
