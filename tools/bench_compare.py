#!/usr/bin/env python3
"""Compare two BENCH_<name>.json reports metric by metric.

Stdlib-only, like tools/validate_bench_json.py.  Matches metrics by exact
name between a baseline report and a candidate report and classifies each
pair as improvement / unchanged / regression:

  * direction comes from the metric's unit: "1/s" is higher-better;
    "ns", "us", "s", and "steps" are lower-better.  Unknown or missing
    units are compared informationally but never gated.
  * a metric regresses when it is worse than baseline by more than
    --tolerance (relative, default 0.10 = 10%).

Gating: by default the exit status is 1 if any *gated* metric regressed.
--metric PREFIX (repeatable) restricts gating to metrics whose name starts
with PREFIX — everything else is still printed, but report-only.  This is
how CI gates only the deterministic simulation metrics (sim_makespan/*)
while throughput metrics, which are machine-dependent, stay informational.
--report-only prints the full comparison and always exits 0.

A --metric prefix that matches no gateable baseline row fails the gate,
naming the prefix: a row whose unit has no direction (e.g. "ratio") is
informational, so a prefix over only such rows would compare nothing and
pass forever.  Gate deterministic unitless rows with --exact instead.

A report that lists one metric name twice is rejected (exit status 1,
naming the metric): matching is by name, so duplicates cannot be compared.

A gated baseline metric that is absent from the candidate report fails the
gate with a message naming the missing metric(s): losing a metric is a
coverage regression even when nothing got slower.

--exact PREFIX (repeatable) gates metrics whose name starts with PREFIX on
*exact equality* regardless of unit: these are deterministic counts (e.g.
the external-domain robustness counters external/ops_timed_out and
external/ops_shed), where a change in either direction means the protocol
resolved ops differently, not that something got faster or slower.  An
--exact metric missing from the candidate fails the gate like a missing
gated metric.

Traced reports additionally synthesize span_growth/<label> rows from the
bound ledger: for every *labeled* domain, the mean measured BOP span at the
largest populated batch-size bucket divided by the mean at the smallest —
the report's one-number answer to "how fast does s(n) grow with n?".
Unit "x", lower-better, so --metric span_growth/ gates a rewrite that made
batch span grow faster with batch size.  Unlabeled domains (transient
throughput-lane structures with recycled ids) synthesize nothing.

Gate manifest: --manifest FILE --candidate-dir DIR --report NAME
(repeatable) runs every manifest entry whose "report" is one of the named
reports, against DIR/NAME.  Each entry of the manifest's "gates" list holds
one comparison: "report" (the baseline is the file of that name next to
the manifest), "metric" and "exact" prefix lists, "tolerance" and
optionally "report_only".  A named report whose candidate file is missing, or that no
entry gates, fails the run; so does any failing entry.  CI keeps its gates
in bench/results/gates.json, so a new gate is one entry of data.

Usage:
    python3 tools/bench_compare.py --baseline bench/results/BENCH_counter.json \
        --candidate bench-out/BENCH_counter.json \
        --metric sim_makespan/ --tolerance 0.05
    python3 tools/bench_compare.py --manifest bench/results/gates.json \
        --candidate-dir bench-out --report BENCH_counter.json
"""

import argparse
import json
import os
import sys

HIGHER_BETTER_UNITS = {"1/s"}
# "workers" is the crossover-point unit of BENCH_sim_scenarios: the smallest
# simulated P at which BATCHER durably beats a rival — smaller is better.
# "x" is the span_growth ratio unit: span at the largest batch-size bucket
# over span at the smallest — growing faster with batch size is worse.
LOWER_BETTER_UNITS = {"ns", "us", "s", "steps", "workers", "x"}


HIST_PERCENTILES = ("p50_ns", "p99_ns", "p999_ns")


def load_metrics(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    metrics = {}
    for m in report.get("metrics", []):
        if m["name"] in metrics:
            # A repeated name would silently hide every copy but the last
            # from the comparison.
            sys.exit(f"error: {path}: metric {m['name']!r} appears more "
                     f"than once")
        metrics[m["name"]] = (m["value"], m.get("unit", ""))
    empty_hists = synthesize_histogram_metrics(report, metrics)
    synthesize_span_growth_metrics(report, metrics)
    return report.get("name", "?"), metrics, empty_hists


def synthesize_histogram_metrics(report, metrics):
    """Lifts histogram percentiles into gateable metric rows.

    Each non-empty histogram — under trace.metrics.histograms (trace-derived)
    or the report's top-level "histograms" section (bench-owned, e.g. the
    service SLO latencies) — contributes hist/<name>/p50_ns, /p99_ns, and
    /p999_ns (unit "ns", so lower-better), letting --metric hist/ gate tail
    latencies the same way as ordinary metric rows.  Histogram buckets are
    power-of-two, so any real percentile shift is >= 2x — pair hist/ gating
    with a generous --tolerance.

    An *empty* histogram (zero samples) synthesizes nothing: a percentile of
    nothing is not 0 ns, and letting it gate as 0 would reward a run that
    recorded no data.  Returns the set of hist/ base names that were present
    but empty, so the caller can say "present but empty" — a recording
    regression — instead of the indistinguishable "metric vanished" when a
    gated percentile goes missing.
    """
    empty = set()
    sources = [report.get("trace", {}).get("metrics", {}).get("histograms", {}),
               report.get("histograms", {})]
    for hists in sources:
        if not isinstance(hists, dict):
            continue
        for hname, h in sorted(hists.items()):
            if not isinstance(h, dict):
                continue
            base = hname[:-3] if hname.endswith("_ns") else hname
            if not h.get("count", 0):
                empty.add(base)
                continue
            for pct in HIST_PERCENTILES:
                if pct in h:
                    metrics[f"hist/{base}/{pct}"] = (float(h[pct]), "ns")
    return empty


def bucket_order(key):
    """Sort key for ledger size-bucket names: le_1 < le_4 < ... < gt_64.

    le_N names the bucket's inclusive upper bound; the open-ended gt_N bucket
    shares its N with the last le_N and sorts after it.
    """
    prefix, _, bound = key.partition("_")
    return (int(bound), 1 if prefix == "gt" else 0)


def synthesize_span_growth_metrics(report, metrics):
    """Lifts the bound ledger's s(n) tables into span_growth/<label> rows.

    For each labeled domain in bound_ledger.domains, emits the ratio of
    mean_ns at the largest populated bop_span_by_size bucket to mean_ns at
    the smallest (unit "x", lower-better).  Mean is used rather than a
    percentile because histogram percentiles are power-of-two quantized;
    mean_ns is exact.  Domains without a label, with fewer than two
    populated buckets, or with a zero small-bucket mean synthesize nothing —
    a growth ratio needs two real endpoints.
    """
    for domain in report.get("bound_ledger", {}).get("domains", []):
        label = domain.get("label")
        if not label:
            continue
        populated = sorted(
            ((bucket_order(k), h) for k, h in
             domain.get("bop_span_by_size", {}).items()
             if h.get("count", 0) > 0 and h.get("mean_ns", 0) > 0),
            key=lambda kv: kv[0])
        if len(populated) < 2:
            continue
        smallest = populated[0][1]["mean_ns"]
        largest = populated[-1][1]["mean_ns"]
        metrics[f"span_growth/{label}"] = (largest / smallest, "x")


def directional(unit):
    """True when the unit says which way is better, so a row can gate."""
    return unit in HIGHER_BETTER_UNITS or unit in LOWER_BETTER_UNITS


def classify(name, base, cand, unit, tolerance):
    """Returns (status, rel) with status in {better, same, worse, info}."""
    if not directional(unit):
        return "info", 0.0
    sign = 1.0 if unit in HIGHER_BETTER_UNITS else -1.0
    if base == 0:
        return ("same", 0.0) if cand == 0 else ("info", 0.0)
    rel = (cand - base) / abs(base)  # >0: candidate larger
    gain = sign * rel                # >0: candidate better
    if gain < -tolerance:
        return "worse", rel
    if gain > tolerance:
        return "better", rel
    return "same", rel


def unmatched_metric_prefixes(base, metric, exact):
    """The --metric prefixes that match no gateable baseline row: a row
    gates when --exact covers it or its unit has a direction."""
    def is_exact(name):
        return any(name.startswith(p) for p in exact)
    return [prefix for prefix in metric
            if not any(name.startswith(prefix)
                       and (is_exact(name) or directional(unit))
                       for name, (_, unit) in base.items())]


def compare(baseline, candidate, tolerance=0.10, metric=(), exact=(),
            report_only=False):
    """Prints the comparison of two reports; returns the exit status."""
    base_name, base, _ = load_metrics(baseline)
    cand_name, cand, cand_empty = load_metrics(candidate)
    if base_name != cand_name:
        print(f"note: comparing different reports "
              f"({base_name!r} vs {cand_name!r})")

    def empty_note(name):
        """'(present but empty)' when a hist/ metric's candidate histogram
        exists but recorded zero samples — a recording regression, named as
        such so it is not mistaken for a dropped export."""
        if name.startswith("hist/"):
            base_key = name[len("hist/"):].rsplit("/", 1)[0]
            if base_key in cand_empty:
                return " (candidate histogram present but EMPTY)"
        return ""

    def gated(name):
        if not metric:
            return True
        return any(name.startswith(p) for p in metric)

    def is_exact(name):
        return any(name.startswith(p) for p in exact)

    gate_failures = 0
    exact_failures = 0
    missing_gated = []
    rows = 0
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            print(f"  NEW      {name} = {cand[name][0]:g}")
            continue
        if name not in cand:
            note = empty_note(name)
            print(f"  MISSING  {name} (baseline {base[name][0]:g}){note}")
            if (gated(name) or is_exact(name)) and not report_only:
                missing_gated.append(name + note)
            continue
        bval, bunit = base[name]
        cval, cunit = cand[name]
        unit = bunit or cunit
        if is_exact(name):
            matches = bval == cval
            tag = "ok" if matches else "DIFF"
            print(f"  {tag:<8} {name}: {bval:g} -> {cval:g} (exact)")
            rows += 1
            if not matches:
                exact_failures += 1
            continue
        status, rel = classify(name, bval, cval, unit, tolerance)
        tag = {"better": "BETTER", "same": "ok", "worse": "WORSE",
               "info": "info"}[status]
        scope = "gated" if gated(name) and status != "info" else "report"
        print(f"  {tag:<8} {name}: {bval:g} -> {cval:g} "
              f"({rel:+.1%}, {unit or 'unitless'}, {scope})")
        rows += 1
        if status == "worse" and gated(name):
            gate_failures += 1

    if rows == 0 and not missing_gated:
        print("no comparable metrics found")
    if report_only:
        return 0
    failed = False
    for prefix in unmatched_metric_prefixes(base, metric, exact):
        print(f"FAIL: --metric {prefix!r} matches no gateable baseline "
              f"row (none, or only rows whose unit has no direction); "
              f"use --exact for deterministic unitless rows")
        failed = True
    if missing_gated:
        # Name every absent metric: a gated baseline metric the candidate no
        # longer reports is a coverage regression, not a slowdown, and the
        # failure message must say which metric vanished.
        print(f"FAIL: {len(missing_gated)} gated baseline metric(s) missing "
              f"from candidate: " + ", ".join(missing_gated))
        failed = True
    if gate_failures > 0:
        print(f"FAIL: {gate_failures} gated metric(s) regressed beyond "
              f"{tolerance:.0%}")
        failed = True
    if exact_failures > 0:
        print(f"FAIL: {exact_failures} exact-match metric(s) differ from "
              f"baseline")
        failed = True
    if failed:
        return 1
    print("PASS: no gated regressions")
    return 0


def load_manifest(path):
    """The manifest's gate entries."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)["gates"]


def run_manifest(manifest, candidate_dir, reports):
    """Runs the manifest entries of the named reports, each against the
    baseline of the same name next to the manifest; returns the exit
    status."""
    entries = load_manifest(manifest)
    root = os.path.dirname(os.path.abspath(manifest))
    status = 0
    for report in reports:
        selected = [e for e in entries if e["report"] == report]
        candidate = os.path.join(candidate_dir, report)
        if not selected:
            print(f"FAIL: no entry of {manifest} gates {report}")
            status = 1
            continue
        if not os.path.exists(candidate):
            print(f"FAIL: candidate report {candidate} is missing")
            status = 1
            continue
        for e in selected:
            print(f"== {report}: metric {e['metric']} exact {e['exact']} "
                  f"tolerance {e['tolerance']}"
                  + (" (report only)" if e.get("report_only") else ""))
            status |= compare(os.path.join(root, report), candidate,
                              e["tolerance"],
                              e["metric"], e["exact"],
                              e.get("report_only", False))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--candidate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance before a change gates "
                             "(default 0.10)")
    parser.add_argument("--metric", action="append", default=[],
                        help="gate only metrics whose name starts with this "
                             "prefix (repeatable); others are report-only")
    parser.add_argument("--exact", action="append", default=[],
                        help="gate metrics whose name starts with this prefix "
                             "on exact equality (repeatable); direction and "
                             "tolerance do not apply")
    parser.add_argument("--report-only", action="store_true",
                        help="never fail, just print the comparison")
    parser.add_argument("--manifest",
                        help="run this gate manifest's entries instead")
    parser.add_argument("--candidate-dir",
                        help="with --manifest: where the candidate reports are")
    parser.add_argument("--report", action="append", default=[],
                        help="with --manifest: a report whose entries run "
                             "(repeatable)")
    args = parser.parse_args()
    if args.manifest:
        if not args.candidate_dir or not args.report:
            parser.error("--manifest needs --candidate-dir and --report")
        return run_manifest(args.manifest, args.candidate_dir, args.report)
    if not args.baseline or not args.candidate:
        parser.error("--baseline and --candidate are required")
    return compare(args.baseline, args.candidate, args.tolerance, args.metric,
                   args.exact, args.report_only)


if __name__ == "__main__":
    sys.exit(main())
