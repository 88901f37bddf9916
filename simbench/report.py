"""Aggregation and correctness checks for the simulator-speed benchmark.

Pure functions over the JSON records the `simbench` binary prints (one per
operation, one per set-up-only repetition, one closing record); run.py feeds
them in and prints what `summarize` returns. Kept free of I/O so the tests
can drive it with synthetic records.
"""

import math
import re
import statistics

# End-to-end metrics (reported with --trace 0): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (reported with --trace 1): name -> unit. Counts are
# deterministic and come from an untraced operation; times (unit "s") come
# from the traced operations, sim.shard_speedup from the threaded ones.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.events_per_segment": "ratio",
    "sim.windows": "count",
    "sim.exchanged": "count",
    "sim.events_per_window": "ratio",
    "sim.shard_speedup": "ratio",
    "tcp.segments_sent": "count",
    "tcp.acks_sent": "count",
    "tcp.retransmits": "count",
    "tcp.timeouts": "count",
    "tcp.retx_ratio": "ratio",
    "tcp.conns_opened": "count",
    "tcp.conn_complete_ratio": "ratio",
    "nic.tx_frames": "count",
    "nic.interrupts": "count",
    "nic.frames_per_interrupt": "ratio",
    "link.frames_delivered": "count",
    "link.drops_queue": "count",
    "link.switch_forwarded": "count",
    "link.switch_drops": "count",
    "core.build_s": "s",
    "core.establish_s": "s",
    "core.teardown_s": "s",
    "obs.snapshot_s": "s",
    "obs.metrics": "count",
    "tools.ledger_s": "s",
    "trace.overhead": "ratio",
}

# Per-layer times: metric -> the operation phase the binary times.
LAYER_PHASES = {
    "core.build_s": "build",
    "core.establish_s": "establish",
    "core.teardown_s": "teardown",
    "obs.snapshot_s": "snapshot",
    "tools.ledger_s": "ledger",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n):
    """Highest percentile in PERCENTILES with at least ten of `n` samples
    beyond it, or None when even the median has fewer than ten beyond it."""
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def describe(values):
    """Median, the highest supported tail percentile and the sample count."""
    n = len(values)
    p = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(values),
        "tail_p": p,
        "tail": percentile(values, p) if p is not None else None,
    }


def ops_in(ops, mode):
    """The operations run in `mode`: "untraced", "traced" (spans and
    sim.slice recorded, otherwise run as untraced) or "threaded" (the 2-shard
    pass on two worker threads)."""
    return [op for op in ops if op["mode"] == mode]


def _ratio(num, den):
    return float(num) / den if den else 0.0


def expected_points(reference, workload, seed):
    """The stored reference outputs for this workload and seed, keyed by
    point, or None when the seed has none (fabric_mix off the stored
    seeds)."""
    entry = reference.get(workload)
    if entry is None:
        return None
    if entry.get("seed_independent"):
        return entry["points"]
    return entry.get("seeds", {}).get(str(seed))


def check_points(ops, expected):
    """Counts attempted and failed simulation points over every operation.

    A point fails when the binary flagged it (did not complete, a ledger did
    not conserve, 1-shard and 2-shard outputs differ), when its outputs
    differ from the reference, or — with no reference — from the same point
    in the run's first untraced operation (rerun identity). An operation
    fails every point if its per-layer counts (executed events included)
    differ from the first untraced operation's: reruns must repeat them
    exactly, and tracing must not perturb them. Returns (attempted, failed,
    problems)."""
    attempted = 0
    failed = 0
    problems = []
    baseline = ops_in(ops, "untraced")[0]
    want = expected
    if want is None:
        want = {p["key"]: p["outputs"] for p in baseline["points"]}
    for op in ops:
        counts_differ = op["counts"] != baseline["counts"]
        seen = set()
        for point in op["points"]:
            attempted += 1
            key = point["key"]
            seen.add(key)
            why = point["problem"]
            if not why and key not in want:
                why = "unexpected point"
            elif not why and point["outputs"] != want[key]:
                why = "outputs differ from the " + (
                    "reference" if expected is not None else "first run"
                )
            elif not why and counts_differ:
                why = "per-layer counts differ from the first untraced run"
            if why:
                failed += 1
                problems.append("op %d %s: %s" % (op["index"], key, why))
        missing = sorted(set(want) - seen)
        attempted += len(missing)
        failed += len(missing)
        problems.extend("op %d %s: missing" % (op["index"], k) for k in missing)
    return attempted, failed, problems


def _median_phase(ops, phase):
    return statistics.median(op["phases"].get(phase, 0.0) for op in ops)


def end_to_end_metrics(ops, setups, end):
    untraced = ops_in(ops, "untraced")
    return {
        "wall_s": describe([op["wall_s"] for op in untraced]),
        "run_s": describe([op["phases"].get("run", 0.0) for op in untraced]),
        "setup_s": describe([s["setup_s"] for s in setups]),
        "peak_rss_mb": {"n": 1, "median": end["peak_rss_kb"] / 1024.0,
                        "tail_p": None, "tail": None},
    }


def per_layer_metrics(ops):
    untraced = ops_in(ops, "untraced")
    traced = ops_in(ops, "traced")
    threaded = ops_in(ops, "threaded")
    counts = untraced[0]["counts"]

    def c(name):
        return float(counts.get(name, 0.0))

    run_s = statistics.median(op["phases"].get("run", 0.0) for op in untraced)
    out = {name: c(name) for name, unit in PER_LAYER.items()
           if unit == "count"}
    out["sim.events_per_s"] = _ratio(c("sim.events"), run_s)
    out["sim.events_per_segment"] = _ratio(c("sim.events"),
                                           c("tcp.segments_sent"))
    out["sim.events_per_window"] = _ratio(c("sim.events"), c("sim.windows"))
    if threaded:
        out["sim.shard_speedup"] = _ratio(
            statistics.median(op["run_1shard_s"] for op in threaded),
            statistics.median(op["run_2shard_s"] for op in threaded))
    else:
        out["sim.shard_speedup"] = 0.0
    out["tcp.retx_ratio"] = _ratio(c("tcp.retransmits"),
                                   c("tcp.segments_sent"))
    out["tcp.conn_complete_ratio"] = _ratio(c("tcp.conns_closed"),
                                            c("tcp.conns_opened"))
    out["nic.frames_per_interrupt"] = _ratio(c("nic.tx_frames"),
                                             c("nic.interrupts"))
    for name, phase in LAYER_PHASES.items():
        out[name] = _median_phase(traced, phase)
    # Traced and untraced operations differ only in tracing.
    out["trace.overhead"] = _ratio(
        statistics.median(op["wall_s"] for op in traced),
        statistics.median(op["wall_s"] for op in untraced)) - 1.0
    return out


def summarize(records, trace, expected):
    """The result object: correct/attempted/failed plus the metrics for this
    trace mode, and a list of problems and human-readable detail."""
    ops = [r for r in records if r["kind"] == "op"]
    setups = [r for r in records if r["kind"] == "setup"]
    ends = [r for r in records if r["kind"] == "end"]
    if not ops or not ends or not ops_in(ops, "untraced"):
        raise ValueError("the binary produced no untraced operation")
    if trace and not ops_in(ops, "traced"):
        raise ValueError("a traced run produced no traced operation")
    attempted, failed, problems = check_points(ops, expected)
    if trace:
        values = per_layer_metrics(ops)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        detail = {}
    else:
        detail = end_to_end_metrics(ops, setups, ends[-1])
        metrics = {name: {"value": float(detail[name]["median"]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems, detail


def layer_self_times(spans):
    """Host seconds per span name with child spans subtracted (self time),
    summed over the traced operations. Children never overlap each other:
    the binary opens spans strictly nested."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def slice_profile(spans, buckets=10):
    """Where host time goes along simulated time: the sim.slice children of
    each run span are split into `buckets` equal runs of consecutive slices
    (tenths of that run's simulated time by default), and each bucket gets
    its share of slice host time and its host nanoseconds per executed
    event, summed over every run span."""
    by_parent = {}
    for s in spans:
        if s["name"] == "sim.slice":
            by_parent.setdefault(s["parent"], []).append(s)
    host = [0.0] * buckets
    events = [0] * buckets
    for slices in by_parent.values():
        for i, s in enumerate(slices):
            b = i * buckets // len(slices)
            host[b] += s["end"] - s["start"]
            events[b] += s["events"]
    total = sum(host)
    if not total:
        return []
    return [(h / total, _ratio(h * 1e9, e)) for h, e in zip(host, events)]
