#!/usr/bin/env python3
"""Stdlib unit tests for tools/validate_bench_json.py.

Run directly (python3 tools/test_validate_bench_json.py) or via ctest, which
registers it as tools/validate_bench_json.  Every committed baseline in
bench/results/ must pass schema validation and reconciliation, and a
hand-mutated copy that breaks a cross-field identity must fail it.
"""

import copy
import glob
import importlib.util
import json
import os
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS_DIR)


def load_module():
    spec = importlib.util.spec_from_file_location(
        "validate_bench_json", os.path.join(TOOLS_DIR, "validate_bench_json.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


V = load_module()


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


SCHEMA = load_json(os.path.join(ROOT, "bench", "bench_report.schema.json"))
BASELINES = sorted(glob.glob(os.path.join(ROOT, "bench", "results",
                                          "BENCH_*.json")))


def check(report):
    errors = []
    V.validate(report, SCHEMA, "$", errors)
    if not errors:
        V.reconcile(report, errors)
    return errors


class CommittedBaselines(unittest.TestCase):
    def test_every_baseline_validates(self):
        self.assertTrue(BASELINES)
        for path in BASELINES:
            with self.subTest(report=os.path.basename(path)):
                self.assertEqual(check(load_json(path)), [])


class AnnounceIdentity(unittest.TestCase):
    def setUp(self):
        self.report = load_json(
            os.path.join(ROOT, "bench", "results", "BENCH_counter.json"))
        self.assertTrue(self.report["batcher_stats"])

    def test_lost_announce_is_caught(self):
        bad = copy.deepcopy(self.report)
        bad["batcher_stats"][0]["announce_pushes"] -= 1
        errors = check(bad)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("announce_pushes", errors[0])

    def test_op_without_announce_is_caught(self):
        bad = copy.deepcopy(self.report)
        bad["batcher_stats"][-1]["announce_pushes"] = 0
        self.assertTrue(any("announce_pushes" in e for e in check(bad)))


class HistogramRange(unittest.TestCase):
    def test_p999_past_max_is_caught(self):
        report = load_json(
            os.path.join(ROOT, "bench", "results", "BENCH_service.json"))
        bad = copy.deepcopy(report)
        h = bad["histograms"]["service_uniform_ns"]
        h["p999_ns"] = h["max_ns"] + 1
        errors = check(bad)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("exceeds max_ns", errors[0])


if __name__ == "__main__":
    unittest.main()
