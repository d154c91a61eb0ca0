#!/usr/bin/env python3
"""Unit tests of run.py's rules and of BENCHMARK.json; no build needed.

  python3 bench/lbnn_bench/test_run.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class QuartilesTest(unittest.TestCase):
    def test_known_inputs(self):
        self.assertEqual(run.quartiles(range(1, 10)), (2.5, 5.0, 7.5))
        self.assertEqual(run.quartiles([4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75))

    def test_one_value(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))


class JudgeTest(unittest.TestCase):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]

    def test_relative_bound(self):
        worse = [v * 1.2 for v in self.steady]
        self.assertEqual(run.judge(self.steady, worse, "lower", 0.1, False), "regressed")
        self.assertEqual(run.judge(self.steady, worse, "higher", 0.1, False), "unchanged")
        slightly = [v * 1.05 for v in self.steady]
        self.assertEqual(run.judge(self.steady, slightly, "lower", 0.1, False), "unchanged")

    def test_absolute_bound(self):
        base = [0.990, 0.991, 0.989, 0.990]
        self.assertEqual(run.judge(base, [0.980, 0.981, 0.979, 0.980], "higher", 0.005, True),
                         "regressed")
        self.assertEqual(run.judge(base, [0.988, 0.989, 0.987, 0.988], "higher", 0.005, True),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
        self.assertEqual(run.judge(self.steady, noisy, "lower", 0.1, False), "unresolved")
        self.assertEqual(run.judge(noisy, self.steady, "lower", 0.1, False), "unresolved")

    def test_every_new_run_better_resolves_a_wide_spread(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
        self.assertEqual(run.judge(noisy, [50.0, 60.0, 70.0], "lower", 0.1, False),
                         "unchanged")


class ResultLineTest(unittest.TestCase):
    declared = [{"name": "setup_s"}, {"name": "p50_us"}]

    def test_exactly_the_declared_metrics(self):
        parsed = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                              "p50_us": {"value": 9.0, "unit": "us"},
                              "samples": {"value": 3.0, "unit": "count"}}}
        out = json.loads(run.result_line(parsed, self.declared))
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(out["metrics"]), {"setup_s", "p50_us"})

    def test_missing_metric_exits(self):
        parsed = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
        with self.assertRaises(SystemExit):
            run.result_line(parsed, self.declared)

    def test_fail_frac_is_derived_from_counts(self):
        runs = [{"workload": "w", "trace": 0, "attempted": 200, "failed": 2,
                 "metrics": {}}]
        self.assertEqual(run.rows_of(runs, 0)[("fail_frac", "w")], ([0.01], "fraction"))


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.extras = run.load_extras()

    def test_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["bench/lbnn_bench"])
        self.assertEqual(self.spec["command"], ["python3", "bench/lbnn_bench/run.py"])
        # A measurement campaign of 4 + 22 runs per workload, each about
        # run_seconds plus 12 s of set-up and layer pass, and two builds,
        # fits in 57 minutes.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLess(runs * (self.spec["run_seconds"] + 12) + 2 * 150, 3420)

    def test_names_and_units(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_layer_metric_names_what_it_moves(self):
        moves = self.extras["per_layer_moves"]
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        e2e |= {m["name"] for m in self.extras["extra_end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]}
        layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(set(moves), set(layer))
        for name in layer:
            self.assertIn(moves[name]["end_to_end"], e2e, name)
            self.assertIn(moves[name]["workload"], workloads, name)


if __name__ == "__main__":
    unittest.main()
