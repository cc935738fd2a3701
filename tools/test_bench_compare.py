#!/usr/bin/env python3
"""Stdlib unit tests for tools/bench_compare.py.

Run directly (python3 tools/test_bench_compare.py) or via ctest, which
registers it as tools/bench_compare.  No third-party deps: the module under
test is loaded by path with importlib and exercised through its main() with
patched argv, asserting on exit codes and printed output.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(TOOLS_DIR, "bench_compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_report(path, metrics, histograms=None, top_histograms=None,
                ledger_domains=None):
    """metrics: list of (name, value, unit); histograms: trace histogram
    dict; top_histograms: report-level (bench-owned) histogram dict;
    ledger_domains: bound_ledger.domains list (span_growth synthesis)."""
    report = {
        "schema_version": 1,
        "name": "unit",
        "smoke": True,
        "config": {},
        "metrics": [{"name": n, "value": v, "unit": u}
                    for (n, v, u) in metrics],
        "batcher_stats": [],
        "scheduler_stats": [],
        "ops_processed_total": 0,
    }
    if histograms is not None:
        report["trace"] = {"file": "", "metrics": {"histograms": histograms}}
    if top_histograms is not None:
        report["histograms"] = top_histograms
    if ledger_domains is not None:
        report["bound_ledger"] = {"domains": ledger_domains}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)


def span_domain(label, bucket_means, domain=0):
    """A bound_ledger domain whose bop_span_by_size has the given
    {bucket_name: mean_ns} entries (count 10 each)."""
    d = {
        "domain": domain,
        "batches": 10 * len(bucket_means),
        "ops": 0,
        "sum_bop_wall_ns": 0,
        "sum_bop_span_ns": 0,
        "bop_wall_by_size": {},
        "bop_span_by_size": {
            k: {"count": 10, "mean_ns": m} for k, m in bucket_means.items()
        },
    }
    if label is not None:
        d["label"] = label
    return d


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.module = load_module()
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_compare(self, base_metrics, cand_metrics, extra_args=(),
                    base_hists=None, cand_hists=None,
                    base_top_hists=None, cand_top_hists=None,
                    base_ledger=None, cand_ledger=None):
        """Returns (exit_code, captured_stdout)."""
        base = os.path.join(self.tmp.name, "BENCH_base.json")
        cand = os.path.join(self.tmp.name, "BENCH_cand.json")
        make_report(base, base_metrics, base_hists, base_top_hists,
                    base_ledger)
        make_report(cand, cand_metrics, cand_hists, cand_top_hists,
                    cand_ledger)
        argv = ["bench_compare.py", "--baseline", base, "--candidate", cand,
                *extra_args]
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out):
                code = self.module.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue()

    def test_unchanged_metrics_pass(self):
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 100, "steps")])
        self.assertEqual(code, 0)
        self.assertIn("PASS", out)

    def test_regression_beyond_tolerance_fails(self):
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 150, "steps")],
            extra_args=["--tolerance", "0.05"])
        self.assertEqual(code, 1)
        self.assertIn("WORSE", out)
        self.assertIn("regressed", out)

    def test_regression_within_tolerance_passes(self):
        code, _ = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 104, "steps")],
            extra_args=["--tolerance", "0.05"])
        self.assertEqual(code, 0)

    def test_missing_gated_metric_fails_naming_the_metric(self):
        # The headline behaviour: a gated baseline metric absent from the
        # candidate must fail with a message that names it — not a KeyError,
        # and not a message claiming something "regressed".
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps"),
             ("sim_makespan/B/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 100, "steps")])
        self.assertEqual(code, 1)
        self.assertIn("missing from candidate", out)
        self.assertIn("sim_makespan/B/P=4", out)
        self.assertNotIn("regressed", out)

    def test_missing_ungated_metric_passes(self):
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps"),
             ("mops/throughput", 5.0, "1/s")],
            [("sim_makespan/A/P=4", 100, "steps")],
            extra_args=["--metric", "sim_makespan/"])
        self.assertEqual(code, 0)
        self.assertIn("MISSING", out)  # still reported, just not gated

    def test_missing_gated_metric_report_only_passes(self):
        code, _ = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps")],
            [],
            extra_args=["--report-only"])
        self.assertEqual(code, 0)

    def test_metric_prefix_restricts_gating(self):
        # The throughput regression is outside the gated prefix: report-only.
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps"), ("mops/x", 10.0, "1/s")],
            [("sim_makespan/A/P=4", 100, "steps"), ("mops/x", 1.0, "1/s")],
            extra_args=["--metric", "sim_makespan/"])
        self.assertEqual(code, 0)
        self.assertIn("WORSE", out)

    def test_crossover_workers_unit_is_lower_better(self):
        # A crossover point moving to larger P means BATCHER stopped winning
        # at the smaller P — that is a gated regression.
        code, out = self.run_compare(
            [("crossover/UNIFORM/batcher_beats_flatcomb", 64, "workers")],
            [("crossover/UNIFORM/batcher_beats_flatcomb", 256, "workers")],
            extra_args=["--metric", "crossover/"])
        self.assertEqual(code, 1)
        self.assertIn("WORSE", out)
        # ...and moving to smaller P is an improvement, not a failure.
        code, out = self.run_compare(
            [("crossover/UNIFORM/batcher_beats_flatcomb", 256, "workers")],
            [("crossover/UNIFORM/batcher_beats_flatcomb", 64, "workers")],
            extra_args=["--metric", "crossover/"])
        self.assertEqual(code, 0)
        self.assertIn("BETTER", out)

    def test_exact_metric_equal_passes(self):
        # Robustness counters gate on equality: identical counts pass even
        # though the "count" unit has no gating direction.
        code, out = self.run_compare(
            [("external/ops_timed_out", 32, "count")],
            [("external/ops_timed_out", 32, "count")],
            extra_args=["--exact", "external/ops_"])
        self.assertEqual(code, 0)
        self.assertIn("(exact)", out)
        self.assertIn("PASS", out)

    def test_exact_metric_differs_fails_either_direction(self):
        # A deterministic count moving in *either* direction is a failure —
        # fewer timeouts than baseline still means the protocol resolved ops
        # differently.
        for cand_value in (16, 64):
            code, out = self.run_compare(
                [("external/ops_timed_out", 32, "count")],
                [("external/ops_timed_out", cand_value, "count")],
                extra_args=["--exact", "external/ops_"])
            self.assertEqual(code, 1)
            self.assertIn("DIFF", out)
            self.assertIn("exact-match metric(s) differ", out)

    def test_exact_prefix_does_not_gate_other_metrics(self):
        # The throughput regression is outside the exact prefix and no
        # --metric gate is set alongside it that covers it... --metric
        # defaults to gate-everything, so pass an unrelated --metric too.
        code, out = self.run_compare(
            [("external/ops_shed", 8, "count"), ("mops/x", 10.0, "1/s"),
             ("sim_makespan/A/P=4", 100, "steps")],
            [("external/ops_shed", 8, "count"), ("mops/x", 1.0, "1/s"),
             ("sim_makespan/A/P=4", 100, "steps")],
            extra_args=["--exact", "external/ops_",
                        "--metric", "sim_makespan/"])
        self.assertEqual(code, 0)
        self.assertIn("WORSE", out)

    def test_exact_metric_missing_fails(self):
        code, out = self.run_compare(
            [("external/ops_shed", 8, "count"),
             ("sim_makespan/A/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 100, "steps")],
            extra_args=["--exact", "external/ops_",
                        "--metric", "sim_makespan/"])
        self.assertEqual(code, 1)
        self.assertIn("missing from candidate", out)
        self.assertIn("external/ops_shed", out)

    def test_exact_metric_report_only_passes(self):
        code, _ = self.run_compare(
            [("external/ops_shed", 8, "count")],
            [("external/ops_shed", 9, "count")],
            extra_args=["--exact", "external/ops_", "--report-only"])
        self.assertEqual(code, 0)

    def test_metric_prefix_over_unitless_rows_fails_naming_it(self):
        # "ratio" has no direction, so these rows classify as info and a
        # --metric gate over them would compare nothing, even when the value
        # doubles.  That must fail loudly, naming the prefix...
        ratio = [("sim_makespan_over_opt/P=4", 3.0, "ratio")]
        doubled = [("sim_makespan_over_opt/P=4", 6.0, "ratio")]
        for cand in (ratio, doubled):
            code, out = self.run_compare(
                ratio, cand,
                extra_args=["--metric", "sim_makespan_over_opt/",
                            "--tolerance", "0.02"])
            self.assertEqual(code, 1)
            self.assertIn("'sim_makespan_over_opt/' matches no gateable", out)
        # ...as must a prefix that matches no baseline row at all.
        code, out = self.run_compare(
            [("mops/x", 1.0, "1/s")], [("mops/x", 1.0, "1/s")],
            extra_args=["--metric", "sim_makespan/"])
        self.assertEqual(code, 1)
        self.assertIn("'sim_makespan/' matches no gateable", out)
        # --exact gates the same rows, and a --metric prefix whose rows are
        # all --exact is not inert.
        for extra in (["--exact", "sim_makespan_over_opt/"],
                      ["--exact", "sim_makespan_over_opt/",
                       "--metric", "sim_makespan_over_opt/"]):
            code, out = self.run_compare(ratio, ratio, extra_args=extra)
            self.assertEqual(code, 0)
            code, out = self.run_compare(ratio, doubled, extra_args=extra)
            self.assertEqual(code, 1)
            self.assertIn("DIFF", out)

    def test_histogram_percentiles_are_synthesized_and_gateable(self):
        # Trace histogram percentiles become hist/<name>/p50_ns rows with
        # unit "ns" (lower-better), so --metric hist/ gates tail latency.
        hist = {"op_submit_to_done_ns": {"count": 100, "p50_ns": 1024,
                                         "p99_ns": 4096}}
        worse = {"op_submit_to_done_ns": {"count": 100, "p50_ns": 1024,
                                          "p99_ns": 65536}}
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/", "--tolerance", "3.0"],
            base_hists=hist, cand_hists=worse)
        self.assertEqual(code, 1)
        self.assertIn("hist/op_submit_to_done/p99_ns", out)
        self.assertIn("WORSE", out)
        # Identical percentiles pass under the same gate.
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/", "--tolerance", "3.0"],
            base_hists=hist, cand_hists=dict(hist))
        self.assertEqual(code, 0)
        self.assertIn("hist/op_submit_to_done/p50_ns", out)

    def test_histogram_gone_from_candidate_fails_the_gate(self):
        # Losing a gated histogram (e.g. the trace stopped recording ops) is
        # a coverage regression, same as losing a plain gated metric.
        hist = {"op_submit_to_done_ns": {"count": 100, "p50_ns": 1024,
                                         "p99_ns": 4096}}
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/"],
            base_hists=hist, cand_hists={})
        self.assertEqual(code, 1)
        self.assertIn("missing from candidate", out)
        self.assertIn("hist/op_submit_to_done/p50_ns", out)

    def test_empty_histogram_contributes_no_metrics(self):
        # count == 0 means the percentiles are meaningless zeros; they must
        # not become gateable rows that then "regress" when ops appear.
        empty = {"op_submit_to_done_ns": {"count": 0, "p50_ns": 0,
                                          "p99_ns": 0}}
        code, out = self.run_compare(
            [("mops/x", 1.0, "1/s")], [("mops/x", 1.0, "1/s")],
            base_hists=empty, cand_hists=empty)
        self.assertEqual(code, 0)
        self.assertNotIn("hist/", out)

    def test_empty_candidate_histogram_fails_loudly(self):
        # A gated percentile whose candidate histogram exists but recorded
        # zero samples must fail as a missing gated metric — and the failure
        # message must say the histogram is present-but-empty (a recording
        # regression), not let the metric silently vanish from the gate.
        hist = {"service_uniform_ns": {"count": 100, "p50_ns": 1024,
                                       "p99_ns": 4096, "p999_ns": 8192}}
        empty = {"service_uniform_ns": {"count": 0, "p50_ns": 0,
                                        "p99_ns": 0, "p999_ns": 0}}
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/service_"],
            base_top_hists=hist, cand_top_hists=empty)
        self.assertEqual(code, 1)
        self.assertIn("missing from candidate", out)
        self.assertIn("hist/service_uniform/p99_ns", out)
        self.assertIn("EMPTY", out)

    def test_p999_is_synthesized_and_gateable(self):
        # The SLO tail: p999 rows gate like p50/p99.  A p999-only blowup
        # (p50/p99 unchanged) must still fail the gate.
        hist = {"service_zipfian_ns": {"count": 1000, "p50_ns": 1024,
                                       "p99_ns": 4096, "p999_ns": 8192}}
        worse = {"service_zipfian_ns": {"count": 1000, "p50_ns": 1024,
                                        "p99_ns": 4096, "p999_ns": 262144}}
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/", "--tolerance", "3.0"],
            base_top_hists=hist, cand_top_hists=worse)
        self.assertEqual(code, 1)
        self.assertIn("hist/service_zipfian/p999_ns", out)
        self.assertIn("WORSE", out)

    def test_top_level_histograms_synthesize_without_trace(self):
        # Bench-owned histograms live at the report top level and must
        # synthesize rows even when the report carries no trace section at
        # all (SLO gating works without $BATCHER_TRACE).
        hist = {"service_flashcrowd_ns": {"count": 10, "p50_ns": 512,
                                          "p99_ns": 1024, "p999_ns": 2048}}
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "hist/"],
            base_top_hists=hist, cand_top_hists=dict(hist))
        self.assertEqual(code, 0)
        self.assertIn("hist/service_flashcrowd/p50_ns", out)
        self.assertIn("hist/service_flashcrowd/p999_ns", out)
        self.assertIn("PASS", out)

    def test_span_growth_is_synthesized_and_gateable(self):
        # A labeled ledger domain's s(n) table becomes span_growth/<label> =
        # mean span at the largest populated bucket / mean at the smallest
        # (unit "x", lower-better).  Baseline grows 16x; the candidate's
        # largest-bucket span blowing up to 160x must fail the gate.
        steady = [span_domain("skiplist_sortmerge",
                              {"le_1": 1000, "le_16": 4000, "gt_64": 16000})]
        blown = [span_domain("skiplist_sortmerge",
                             {"le_1": 1000, "le_16": 4000, "gt_64": 160000})]
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "span_growth/",
                                "--tolerance", "2.0"],
            base_ledger=steady, cand_ledger=blown)
        self.assertEqual(code, 1)
        self.assertIn("span_growth/skiplist_sortmerge", out)
        self.assertIn("WORSE", out)
        # An unchanged growth curve passes under the same gate.
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "span_growth/",
                                "--tolerance", "2.0"],
            base_ledger=steady, cand_ledger=[dict(steady[0])])
        self.assertEqual(code, 0)
        self.assertIn("span_growth/skiplist_sortmerge: 16 -> 16", out)

    def test_span_growth_bucket_order_is_numeric_not_lexicographic(self):
        # gt_64 must be recognized as the largest bucket even though it sorts
        # lexicographically before le_16: ratio is gt_64/le_1, not a pair
        # picked by string order.
        dom = [span_domain("d", {"le_1": 100, "le_16": 400, "le_4": 200,
                                 "gt_64": 1600, "le_64": 800})]
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "span_growth/"],
            base_ledger=dom, cand_ledger=[dict(dom[0])])
        self.assertEqual(code, 0)
        self.assertIn("span_growth/d: 16 -> 16", out)

    def test_span_growth_skips_unlabeled_and_single_bucket_domains(self):
        # Unlabeled domains are transient throughput-lane structures with
        # recycled ids — no stable identity, no gateable row.  A single
        # populated bucket has no growth to measure.
        doms = [span_domain(None, {"le_1": 100, "gt_64": 1600}, domain=2),
                span_domain("organic_only", {"le_1": 100}, domain=3)]
        code, out = self.run_compare(
            [("mops/x", 1.0, "1/s")], [("mops/x", 1.0, "1/s")],
            base_ledger=doms, cand_ledger=doms)
        self.assertEqual(code, 0)
        self.assertNotIn("span_growth/", out)

    def test_span_growth_missing_from_candidate_fails_the_gate(self):
        # Losing the span profile (e.g. the bench stopped driving controlled
        # batch sizes) is a coverage regression like any missing gated row.
        dom = [span_domain("wbtree_sortmerge", {"le_1": 1000, "gt_64": 9000})]
        code, out = self.run_compare(
            [], [], extra_args=["--metric", "span_growth/"],
            base_ledger=dom, cand_ledger=[])
        self.assertEqual(code, 1)
        self.assertIn("missing from candidate", out)
        self.assertIn("span_growth/wbtree_sortmerge", out)

    def test_duplicate_metric_name_fails_naming_the_metric(self):
        # Matching is by name, so a repeated name used to keep only its last
        # copy and leave the others uncompared.  Either side, even with
        # --report-only, must fail and name the metric.
        dup = [("minserts_per_s/BAT/P=1", 100, "1/s"),
               ("minserts_per_s/BAT/P=1", 900, "1/s")]
        one = [("minserts_per_s/BAT/P=1", 100, "1/s")]
        for base, cand, extra in ((dup, one, ()), (one, dup, ()),
                                  (one, dup, ("--report-only",))):
            with self.assertRaises(SystemExit) as ctx:
                self.run_compare(base, cand, extra_args=extra)
            self.assertIn("minserts_per_s/BAT/P=1", str(ctx.exception.code))
            self.assertIn("more than once", str(ctx.exception.code))

    def test_new_metric_is_informational(self):
        code, out = self.run_compare(
            [("sim_makespan/A/P=4", 100, "steps")],
            [("sim_makespan/A/P=4", 100, "steps"),
             ("sim_makespan/A/P=8", 60, "steps")])
        self.assertEqual(code, 0)
        self.assertIn("NEW", out)


    def run_manifest(self, entries, reports, candidates):
        """Writes a manifest of `entries` and the candidate reports
        {file name: metrics} into the temp dir, then runs the manifest mode
        for `reports`.  Returns (exit_code, captured_stdout)."""
        manifest = os.path.join(self.tmp.name, "gates.json")
        with open(manifest, "w", encoding="utf-8") as f:
            json.dump({"gates": entries}, f)
        cand_dir = os.path.join(self.tmp.name, "out")
        os.makedirs(cand_dir, exist_ok=True)
        for name, metrics in candidates.items():
            make_report(os.path.join(cand_dir, name), metrics)
        argv = ["bench_compare.py", "--manifest", manifest,
                "--candidate-dir", cand_dir]
        for report in reports:
            argv += ["--report", report]
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = argv
        try:
            with contextlib.redirect_stdout(out):
                code = self.module.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue()

    def manifest_fixture(self):
        make_report(os.path.join(self.tmp.name, "BENCH_a.json"),
                    [("sim_makespan/A/P=4", 100, "steps")])
        make_report(os.path.join(self.tmp.name, "BENCH_b.json"),
                    [("ops/x", 5, "count")])
        return [
            {"report": "BENCH_a.json", "metric": ["sim_makespan/"],
             "exact": [], "tolerance": 0.02},
            {"report": "BENCH_b.json", "metric": [], "exact": ["ops/"],
             "tolerance": 0.10},
        ]

    def test_manifest_runs_the_named_reports_entries(self):
        entries = self.manifest_fixture()
        # BENCH_b's candidate differs but is not named, so it does not run.
        code, out = self.run_manifest(
            entries, ["BENCH_a.json"],
            {"BENCH_a.json": [("sim_makespan/A/P=4", 101, "steps")],
             "BENCH_b.json": [("ops/x", 6, "count")]})
        self.assertEqual(code, 0, out)
        self.assertNotIn("ops/x", out)
        code, out = self.run_manifest(
            entries, ["BENCH_a.json", "BENCH_b.json"],
            {"BENCH_a.json": [("sim_makespan/A/P=4", 101, "steps")],
             "BENCH_b.json": [("ops/x", 6, "count")]})
        self.assertEqual(code, 1)
        self.assertIn("exact-match metric(s) differ", out)

    def test_manifest_missing_candidate_report_fails(self):
        code, out = self.run_manifest(self.manifest_fixture(),
                                      ["BENCH_a.json"], {})
        self.assertEqual(code, 1)
        self.assertIn("BENCH_a.json is missing", out)

    def test_manifest_report_without_an_entry_fails(self):
        code, out = self.run_manifest(
            self.manifest_fixture(), ["BENCH_c.json"],
            {"BENCH_c.json": [("ops/x", 5, "count")]})
        self.assertEqual(code, 1)
        self.assertIn("gates BENCH_c.json", out)

    def test_committed_gate_manifest_matches_its_baselines(self):
        # CI's gates: every baseline exists, every --metric prefix matches a
        # gateable baseline row, and every --exact prefix matches some row,
        # so no entry can pass by comparing nothing.
        manifest = os.path.join(os.path.dirname(TOOLS_DIR), "bench",
                                "results", "gates.json")
        entries = self.module.load_manifest(manifest)
        self.assertEqual(len(entries), 10)
        for e in entries:
            where = f"{e['report']} {e['metric']} {e['exact']}"
            baseline = os.path.join(os.path.dirname(manifest), e["report"])
            self.assertTrue(os.path.exists(baseline), where)
            self.assertIsInstance(e["tolerance"], float, where)
            _, base, _ = self.module.load_metrics(baseline)
            self.assertEqual(
                self.module.unmatched_metric_prefixes(
                    base, e["metric"], e["exact"]), [], where)
            for prefix in e["exact"]:
                self.assertTrue(any(n.startswith(prefix) for n in base),
                                f"{where}: --exact {prefix!r}")


if __name__ == "__main__":
    unittest.main()
