#!/usr/bin/env python3
"""Stdlib unit tests for tools/check_chrome_trace.py.

Run directly (python3 tools/test_check_chrome_trace.py) or via ctest, which
registers it as tools/check_chrome_trace.  A well-formed trace passes; each
broken copy (an unclosed or crossed slice, a phase outside its batch, missing
metadata or counters) fails with the matching problem.
"""

import copy
import importlib.util
import json
import os
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def load_module():
    spec = importlib.util.spec_from_file_location(
        "check_chrome_trace", os.path.join(TOOLS_DIR, "check_chrome_trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


C = load_module()
DOMAIN = 1000001


def ev(ph, tid, ts, name, **extra):
    e = {"ph": ph, "pid": 0, "tid": tid, "ts": ts, "name": name}
    e.update(extra)
    return e


GOOD = [
    {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
     "args": {"name": "batcher"}},
    {"ph": "M", "pid": 0, "tid": 1, "ts": 0, "name": "thread_name",
     "args": {"name": "worker-0"}},
    ev("B", 1, 0.1, "op wait d1"),
    ev("B", 1, 0.2, "flag held d1"),
    ev("B", 1, 0.25, "task:batch"),
    ev("E", 1, 0.3, "task:batch"),
    ev("E", 1, 0.4, "flag held d1"),
    ev("E", 1, 0.5, "op wait d1"),
    ev("X", DOMAIN, 0.2, "collect", dur=0.05),
    ev("X", DOMAIN, 0.25, "run", dur=0.1),
    ev("X", DOMAIN, 0.35, "complete", dur=0.03000000000000003),
    ev("X", DOMAIN, 0.2, "batch[2]", dur=0.18,
       args={"collected": 2, "done": 2}),
    {"ph": "C", "pid": 0, "ts": 0.1, "name": "pending d1",
     "args": {"value": 1}},
]


class CheckChromeTraceTest(unittest.TestCase):
    def problems(self, events):
        return C.check_events(events)

    def test_well_formed_trace_passes(self):
        self.assertEqual(self.problems(GOOD), [])

    def test_unclosed_slice_fails(self):
        events = [e for e in GOOD if not (e["ph"] == "E" and
                                          e["name"] == "op wait d1")]
        self.assertTrue(any("never ends" in p for p in self.problems(events)))

    def test_crossed_slices_fail(self):
        events = copy.deepcopy(GOOD)
        events[5], events[6] = events[6], events[5]  # flag ends inside task
        self.assertTrue(any("closes B" in p for p in self.problems(events)))

    def test_end_on_another_tid_fails(self):
        events = copy.deepcopy(GOOD)
        events[7]["tid"] = 2
        found = self.problems(events)
        self.assertTrue(any("closes no open slice" in p for p in found))
        self.assertTrue(any("never ends" in p for p in found))

    def test_end_before_begin_fails(self):
        events = copy.deepcopy(GOOD)
        events[5]["ts"] = 0.2
        self.assertTrue(any("before its B" in p for p in self.problems(events)))

    def test_phase_outside_its_batch_fails(self):
        events = copy.deepcopy(GOOD)
        events[10]["dur"] = 0.2  # complete runs past the batch's end
        self.assertTrue(any("'complete'" in p and "no batch" in p
                            for p in self.problems(events)))
        events = [e for e in GOOD if not e["name"].startswith("batch[")]
        self.assertEqual(
            sum("no batch" in p for p in self.problems(events)), 3)

    def test_missing_metadata_and_counters_fail(self):
        events = [e for e in GOOD if e["ph"] not in ("M", "C")]
        found = self.problems(events)
        for what in ("process_name", "thread_name", "counter"):
            self.assertTrue(any(what in p for p in found), what)
        self.assertEqual(self.problems([]), ["no trace events"])

    def test_main_reads_files_and_fails_on_a_bad_one(self):
        with tempfile.TemporaryDirectory() as d:
            good = os.path.join(d, "trace_good.json")
            bad = os.path.join(d, "trace_bad.json")
            with open(good, "w", encoding="utf-8") as f:
                json.dump({"displayTimeUnit": "ms", "traceEvents": GOOD}, f)
            with open(bad, "w", encoding="utf-8") as f:
                json.dump({"traceEvents": GOOD[:-1]}, f)
            self.assertEqual(C.main([good]), 0)
            self.assertEqual(C.main([good, bad]), 1)
            self.assertEqual(C.main([os.path.join(d, "trace_*.json")]), 1)
            self.assertEqual(C.main([]), 1)


if __name__ == "__main__":
    unittest.main()
