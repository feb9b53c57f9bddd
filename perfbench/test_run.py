#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic and catalogue.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

No build is needed: the raw reports under testdata/ are real
perfbench outputs with their sample lists shortened.
"""

import json
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def fixture(workload, trace):
    path = HERE / "testdata" / f"{workload}_trace{int(trace)}.json"
    return json.loads(path.read_text())


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 50), 50)
        self.assertEqual(run.nearest_rank(values, 99), 99)
        self.assertEqual(run.nearest_rank(values, 100), 100)
        self.assertEqual(run.nearest_rank([7.0], 99), 7.0)
        self.assertEqual(run.nearest_rank([3, 1, 2], 50), 2)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))
        self.assertIsNone(run.tail_percentile(0))

    def test_chosen_tail_has_ten_beyond(self):
        for n in (20, 57, 100, 999, 1000, 4321, 10000):
            p = run.tail_percentile(n)
            values = list(range(n))
            cut = run.nearest_rank(values, p)
            self.assertGreaterEqual(sum(v > cut for v in values), 10)

    def test_p99_withheld_below_1000_samples(self):
        raw = {"samples": {"hit_us": [float(i) for i in range(999)]}}
        value, n = run.per_layer_metrics("serve", raw)["hit_p99_us"]
        self.assertEqual((value, n), (0.0, 999))
        raw = {"samples": {"hit_us": [float(i) for i in range(1000)]}}
        value, _ = run.per_layer_metrics("serve", raw)["hit_p99_us"]
        self.assertEqual(value, 989.0)


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "core.construct_us.boom-large", "a",
                     "9x", "x" * 64):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_x", ".x", "a b", "a/b", "a:b", "é", "x" * 65):
            self.assertFalse(run.valid_metric_name(name), name)

    def test_every_catalogued_name_is_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in run.CATALOGUE[key]]
        names += run.WORKLOADS
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))


class ShareTest(unittest.TestCase):
    def test_shares_and_remainder(self):
        shares = run.layer_shares({"wall": 200.0, "build": 10.0,
                                   "construct": 20.0, "tick": 150.0,
                                   "analyze": 4.0})
        self.assertAlmostEqual(shares["build"], 0.05)
        self.assertAlmostEqual(shares["construct"], 0.10)
        self.assertAlmostEqual(shares["tick"], 0.75)
        self.assertAlmostEqual(shares["analyze"], 0.02)
        self.assertAlmostEqual(shares["unattributed"], 0.08)
        self.assertTrue(run.shares_sum_to_whole(shares))

    def test_overcounted_parts_fail_the_check(self):
        shares = run.layer_shares({"wall": 100.0, "build": 50.0,
                                   "construct": 30.0, "tick": 40.0,
                                   "analyze": 0.0})
        self.assertAlmostEqual(shares["unattributed"], -0.2)
        self.assertFalse(run.shares_sum_to_whole(shares))

    def test_campaign_fixture_shares_sum_to_one(self):
        metrics = run.per_layer_metrics("campaign",
                                        fixture("campaign", True))
        total = sum(value for name, (value, _) in metrics.items()
                    if name.startswith("sweep.share."))
        self.assertAlmostEqual(total, 1.0, places=12)


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        self.assertEqual(
            BENCHMARK["workloads"],
            [{"name": w["name"], "why": w["why"]}
             for w in run.CATALOGUE["workloads"]])
        self.assertEqual(
            BENCHMARK["end_to_end"],
            [{k: m[k] for k in ("name", "unit", "better", "bound")}
             for m in run.CATALOGUE["end_to_end"]])
        self.assertEqual(
            BENCHMARK["per_layer"],
            [{k: m[k] for k in ("name", "unit", "better")}
             for m in run.CATALOGUE["per_layer"]])
        self.assertEqual(BENCHMARK["command"],
                         ["python3", "perfbench/run.py"])

    def test_predictions_name_known_metrics(self):
        known = {m["name"] for key in ("end_to_end", "per_layer")
                 for m in run.CATALOGUE[key]}
        for metric in run.CATALOGUE["per_layer"]:
            for workload in metric["measured_on"]:
                self.assertIn(workload, run.WORKLOADS)
            for move in metric["moves"]:
                self.assertIn(move["metric"], known, metric["name"])
                self.assertIn(move["workload"], run.WORKLOADS)
        for metric in run.CATALOGUE["end_to_end"]:
            self.assertEqual(set(metric["definition"]), set(run.WORKLOADS))

    def test_runner_emits_exactly_the_catalogue(self):
        for workload in run.WORKLOADS:
            for trace in (False, True):
                key = "per_layer" if trace else "end_to_end"
                _, result = run.summarize(workload, trace,
                                          fixture(workload, trace))
                self.assertEqual(
                    list(result["metrics"]),
                    [m["name"] for m in BENCHMARK[key]])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], (workload, trace))

    def test_measured_on_matches_runner(self):
        for workload in run.WORKLOADS:
            computed = run.per_layer_metrics(workload,
                                             fixture(workload, True))
            for metric in run.CATALOGUE["per_layer"]:
                _, n = computed[metric["name"]]
                self.assertEqual(n > 0, workload in metric["measured_on"],
                                 (workload, metric["name"]))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            computed = run.end_to_end_metrics(workload,
                                              fixture(workload, False))
            for name, (value, n) in computed.items():
                self.assertGreater(value, 0, (workload, name))
                self.assertGreater(n, 0, (workload, name))


class CheckTest(unittest.TestCase):
    def test_wrong_output_is_a_failure(self):
        raw = fixture("longsim", False)
        raw["observed"] = dict(raw["observed"])
        raw["observed"]["longsim.cycles.rocket"] = "1"
        _, result = run.summarize("longsim", False, raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_missing_output_is_a_failure(self):
        raw = fixture("campaign", False)
        raw["observed"] = {}
        _, result = run.summarize("campaign", False, raw)
        self.assertFalse(result["correct"])

    def test_reported_failures_count(self):
        raw = fixture("serve", False)
        raw["failed"] = 3
        _, result = run.summarize("serve", False, raw)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 3)


if __name__ == "__main__":
    unittest.main()
