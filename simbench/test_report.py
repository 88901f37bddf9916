#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no simulator build needed):

    python3 -m unittest discover -s simbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import report

ROOT = Path(__file__).resolve().parent.parent


def op(index, mode="untraced", points=None, counts=None, wall=1.0, run=0.8,
       shard_runs=(0.0, 0.0)):
    return {
        "kind": "op", "index": index, "mode": mode, "wall_s": wall,
        "run_1shard_s": shard_runs[0], "run_2shard_s": shard_runs[1],
        "phases": {"build": 0.01, "establish": 0.02, "run": run,
                   "snapshot": 0.003, "ledger": 0.001, "teardown": 0.004},
        "counts": counts if counts is not None else {
            "sim.events": 100.0, "tcp.segments_sent": 10.0},
        "points": points if points is not None else [
            {"key": "a", "problem": "", "outputs": {"gbps": "2.5"}},
            {"key": "b", "problem": "", "outputs": {"gbps": "3.5"}},
        ],
    }


def records(*ops):
    return list(ops) + [
        {"kind": "setup", "setup_s": 0.02},
        {"kind": "setup", "setup_s": 0.03},
        {"kind": "end", "peak_rss_kb": 2048, "spans": 0},
    ]


REF = {"a": {"gbps": "2.5"}, "b": {"gbps": "3.5"}}


class MetricNames(unittest.TestCase):
    def test_charset_and_length(self):
        for name, unit in {**report.END_TO_END, **report.PER_LAYER}.items():
            self.assertRegex(name, report.NAME_RE)
            self.assertRegex(unit, report.UNIT_RE)
        self.assertIsNone(report.NAME_RE.match("_leading_underscore"))
        self.assertIsNone(report.NAME_RE.match("a" * 65))
        self.assertIsNone(report.NAME_RE.match("has space"))
        self.assertIsNone(report.UNIT_RE.match("much-too-long-unit"))

    def test_names_unique_across_lists(self):
        self.assertFalse(set(report.END_TO_END) & set(report.PER_LAYER))

    def test_benchmark_json_matches(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            report.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            report.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["better"], "lower")


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(1))
        self.assertIsNone(report.tail_percentile(19))
        self.assertEqual(report.tail_percentile(20), 50.0)
        self.assertEqual(report.tail_percentile(39), 50.0)
        self.assertEqual(report.tail_percentile(40), 75.0)
        self.assertEqual(report.tail_percentile(100), 90.0)
        self.assertEqual(report.tail_percentile(199), 90.0)
        self.assertEqual(report.tail_percentile(200), 95.0)
        self.assertEqual(report.tail_percentile(1000), 99.0)
        self.assertEqual(report.tail_percentile(10000), 99.9)

    def test_rule_holds_for_every_n(self):
        for n in range(1, 3000):
            p = report.tail_percentile(n)
            if p is not None:
                self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(report.percentile(values, 90.0), 90)
        self.assertEqual(report.percentile(values, 50.0), 50)
        d = report.describe([5.0] * 99 + [50.0])
        self.assertEqual((d["n"], d["median"], d["tail_p"], d["tail"]),
                         (100, 5.0, 90.0, 5.0))


class FailAccounting(unittest.TestCase):
    def test_clean_run(self):
        result, problems, _ = report.summarize(records(op(0), op(1)), 0, REF)
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))
        self.assertTrue(result["correct"])
        self.assertEqual(problems, [])

    def test_flagged_point_counts_once(self):
        bad = op(1, points=[
            {"key": "a", "problem": "ledger does not conserve",
             "outputs": {"gbps": "2.5"}},
            {"key": "b", "problem": "", "outputs": {"gbps": "3.5"}}])
        result, problems, _ = report.summarize(records(op(0), bad), 0, REF)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        self.assertFalse(result["correct"])
        self.assertEqual(len(problems), 1)

    def test_reference_mismatch(self):
        wrong = op(0, points=[
            {"key": "a", "problem": "", "outputs": {"gbps": "2.4"}},
            {"key": "b", "problem": "", "outputs": {"gbps": "3.5"}}])
        result, _, _ = report.summarize(records(wrong), 0, REF)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))

    def test_missing_point_is_attempted_and_failed(self):
        short = op(0, points=[
            {"key": "a", "problem": "", "outputs": {"gbps": "2.5"}}])
        result, _, _ = report.summarize(records(short), 0, REF)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))

    def test_rerun_identity_without_reference(self):
        drift = op(1, points=[
            {"key": "a", "problem": "", "outputs": {"gbps": "2.6"}},
            {"key": "b", "problem": "", "outputs": {"gbps": "3.5"}}])
        result, _, _ = report.summarize(records(op(0), drift), 0, None)
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))

    def test_traced_run_must_not_perturb_counts(self):
        perturbed = op(1, mode="traced",
                       counts={"sim.events": 101.0,
                               "tcp.segments_sent": 10.0})
        result, problems, _ = report.summarize(
            records(op(0), perturbed), 1, REF)
        self.assertEqual((result["attempted"], result["failed"]), (4, 2))
        self.assertIn("counts differ", problems[0])


class OutputShape(unittest.TestCase):
    def check_shape(self, result, names):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], float)
            self.assertEqual(m["unit"], names[name])
        json.loads(json.dumps(result))  # serializable as one line

    def test_untraced_reports_end_to_end(self):
        result, _, detail = report.summarize(
            records(op(0, wall=1.0), op(1, wall=3.0)), 0, REF)
        self.check_shape(result, report.END_TO_END)
        self.assertEqual(result["metrics"]["wall_s"]["value"], 2.0)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.025)
        self.assertEqual(result["metrics"]["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(detail["wall_s"]["n"], 2)

    def test_traced_reports_per_layer(self):
        result, _, _ = report.summarize(
            records(op(0, wall=1.0), op(1, mode="traced", wall=1.1)), 1, REF)
        self.check_shape(result, report.PER_LAYER)
        m = result["metrics"]
        self.assertAlmostEqual(m["trace.overhead"]["value"], 0.1)
        self.assertEqual(m["sim.events_per_segment"]["value"], 10.0)
        self.assertEqual(m["sim.events_per_s"]["value"], 125.0)
        self.assertEqual(m["sim.shard_speedup"]["value"], 0.0)

    def test_shard_speedup_from_threaded_ops_only(self):
        result, _, _ = report.summarize(records(
            op(0, wall=1.0, shard_runs=(0.2, 0.2)),
            op(1, mode="traced", wall=1.2, shard_runs=(0.2, 0.2)),
            op(2, mode="threaded", wall=3.0, shard_runs=(0.2, 0.8))),
            1, REF)
        m = result["metrics"]
        self.assertEqual(m["sim.shard_speedup"]["value"], 0.25)
        self.assertAlmostEqual(m["trace.overhead"]["value"], 0.2)

    def test_traced_run_needs_a_traced_op(self):
        with self.assertRaises(ValueError):
            report.summarize(records(op(0)), 1, REF)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "tools.run_iperf", "start": 0.0, "end": 1.0,
             "parent": -1},
            {"id": 1, "name": "sim.slice", "start": 0.0, "end": 0.3,
             "parent": 0},
            {"id": 2, "name": "sim.slice", "start": 0.3, "end": 0.9,
             "parent": 0},
        ]
        t = report.layer_self_times(spans)
        self.assertAlmostEqual(t["tools.run_iperf"], 0.1)
        self.assertAlmostEqual(t["sim.slice"], 0.9)
        spans[1]["events"] = 3
        spans[2]["events"] = 12
        (first, ns_first), (second, ns_second) = report.slice_profile(
            spans, 2)
        self.assertAlmostEqual(first, 0.3 / 0.9)
        self.assertAlmostEqual(second, 0.6 / 0.9)
        self.assertAlmostEqual(ns_first, 1e8)
        self.assertAlmostEqual(ns_second, 5e7)


if __name__ == "__main__":
    unittest.main()
