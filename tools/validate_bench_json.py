#!/usr/bin/env python3
"""Validate BENCH_<name>.json bench reports against the checked-in schema.

Stdlib-only (CI must not install packages), so this implements exactly the
subset of JSON Schema that bench/bench_report.schema.json uses:

    type, required, properties, additionalProperties, items, enum, minimum

plus the cross-field reconciliation the schema language cannot express: when
a report carries a trace whose rings never overflowed, the trace-derived op
count must equal the sum of the recorded BatcherStats op counts (the
"histograms reconcile exactly with Batcher::stats()" acceptance check),
every batcher_stats row must satisfy announce_pushes == ops_processed (each
batchify announces once, and a quiescent snapshot has carried every
announced op to done), and
every scheduler_stats row must satisfy the frame-pool identities
(frames_allocated == frames_freed at a quiescent snapshot,
remote_frees <= frames_freed) and the span/work ordering
(span_ns <= work_ns, longest_run_span_ns <= span_ns).  Reports carrying a
bound_ledger section additionally prove the Theorem 1 accounting closes:
the five attribution buckets sum exactly to attributed_ns, attributed time
fits inside worker_threads * wall, the measured critical path fits inside
the wall, total span fits inside total work, and — when no trace records
were dropped — the ledger's online work_ns agrees with the trace's offline
useful_ns to within instrumentation slack.

Per-domain ledger tables are reconciled too: every domain's size-bucket
histograms must account for exactly `batches` recorded calls on both the
wall and span sides, the bucket sums must add back up to the domain's
sum_bop_wall_ns / sum_bop_span_ns counters, a batch is non-empty so
ops >= batches, and measured span never exceeds measured wall (the probe
samples wall-before-path on entry and path-before-wall on exit).  A
*labeled* domain is a rewritten structure's span profile (bench_fig5_skiplist
/ bench_searchtree drive it at several controlled batch sizes), so its span
table must populate at least two size buckets — otherwise the downstream
span_growth/<label> gate in tools/bench_compare.py would silently synthesize
nothing and the s(n) regression coverage would vanish without failing CI.

Usage:
    python3 tools/validate_bench_json.py --schema bench/bench_report.schema.json \
        bench-out/BENCH_*.json
"""

import argparse
import json
import sys


def type_matches(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise ValueError(f"schema uses unsupported type {expected!r}")


def validate(value, schema, path, errors):
    """Appends 'path: problem' strings to `errors` for every violation."""
    expected_type = schema.get("type")
    if expected_type is not None and not type_matches(value, expected_type):
        errors.append(f"{path}: expected {expected_type}, "
                      f"got {type(value).__name__}")
        return  # structural checks below would only cascade

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, sub in value.items():
            sub_path = f"{path}.{key}"
            if key in properties:
                validate(sub, properties[key], sub_path, errors)
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                validate(sub, additional, sub_path, errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def reconcile(report, errors):
    """Cross-field identities the schema cannot state."""
    for i, st in enumerate(report.get("batcher_stats", [])):
        path = f"$.batcher_stats[{i}]"
        if st["ops_processed"] != st["ops_failed"] + st["ops_succeeded"]:
            errors.append(
                f"{path}: ops_processed ({st['ops_processed']}) != "
                f"ops_failed + ops_succeeded "
                f"({st['ops_failed']} + {st['ops_succeeded']})")
        if sum(st["batch_size_histogram"]) != st["batches_launched"]:
            errors.append(
                f"{path}: batch_size_histogram sums to "
                f"{sum(st['batch_size_histogram'])}, expected "
                f"batches_launched = {st['batches_launched']}")
        # A chained launch is still a launch: chaining only skips the flag
        # reopen between two launches, so the chain count can never exceed
        # the launch count.
        if st["chained_launches"] > st["batches_launched"]:
            errors.append(
                f"{path}: chained_launches ({st['chained_launches']}) > "
                f"batches_launched ({st['batches_launched']})")
        # Every batchify announces its slot exactly once (DESIGN.md §11), and
        # a report's stats are quiescent, so each announced op was carried to
        # done by some batch and each carried op had announced.
        if st["announce_pushes"] != st["ops_processed"]:
            errors.append(
                f"{path}: announce_pushes ({st['announce_pushes']}) != "
                f"ops_processed ({st['ops_processed']}) at a quiescent "
                f"snapshot")

    for i, st in enumerate(report.get("scheduler_stats", [])):
        path = f"$.scheduler_stats[{i}]"
        # Snapshots are taken at quiescent points (after Scheduler::run or at
        # destruction), where every pool frame handed out has come back.
        if st["frames_allocated"] != st["frames_freed"]:
            errors.append(
                f"{path}: frames_allocated ({st['frames_allocated']}) != "
                f"frames_freed ({st['frames_freed']}) at a quiescent snapshot")
        if st["remote_frees"] > st["frames_freed"]:
            errors.append(
                f"{path}: remote_frees ({st['remote_frees']}) > "
                f"frames_freed ({st['frames_freed']})")
        if st["slab_refills"] > 0 and st["frames_allocated"] == 0:
            errors.append(
                f"{path}: slab_refills ({st['slab_refills']}) with zero "
                f"frames_allocated (refills happen only on allocation)")
        # Span is a maximum over paths through the summed segments, so it can
        # never exceed the work; the longest single run's span can never
        # exceed the sum of per-run spans.
        if st["span_ns"] > st["work_ns"]:
            errors.append(
                f"{path}: span_ns ({st['span_ns']}) > work_ns "
                f"({st['work_ns']})")
        if st["longest_run_span_ns"] > st["span_ns"]:
            errors.append(
                f"{path}: longest_run_span_ns ({st['longest_run_span_ns']}) "
                f"> span_ns ({st['span_ns']})")
        if st["longest_run_span_tasks"] > st["span_tasks"]:
            errors.append(
                f"{path}: longest_run_span_tasks "
                f"({st['longest_run_span_tasks']}) > span_tasks "
                f"({st['span_tasks']})")

    for i, st in enumerate(report.get("external_stats", [])):
        path = f"$.external_stats[{i}]"
        # Every published record resolves exactly one way (DESIGN.md §13):
        # success, failure (batch error / shutdown / quarantine), or a
        # deadline revocation.  Shed ops were never published and sit outside
        # the identity.
        resolved = (st["ops_succeeded"] + st["ops_failed"]
                    + st["ops_timed_out"])
        if st["ops_served"] != resolved:
            errors.append(
                f"{path}: ops_served ({st['ops_served']}) != ops_succeeded + "
                f"ops_failed + ops_timed_out ({st['ops_succeeded']} + "
                f"{st['ops_failed']} + {st['ops_timed_out']})")
        if st["batches_served"] > st["ops_served"]:
            errors.append(
                f"{path}: batches_served ({st['batches_served']}) > "
                f"ops_served ({st['ops_served']}) — a served batch holds at "
                f"least one op")
        if st["batches_failed"] > st["batches_served"]:
            errors.append(
                f"{path}: batches_failed ({st['batches_failed']}) > "
                f"batches_served ({st['batches_served']})")

    # Bench-owned histograms (the service SLO latencies): bucket counts must
    # account for every recorded sample, and each exported percentile must be
    # bounded by the next percentile up — p50 <= p99 <= p999 by definition of
    # a quantile over one distribution — and p999 by the largest sample (a
    # percentile is its bucket's ceiling clamped to [min_ns, max_ns]).
    for hname, h in sorted(report.get("histograms", {}).items()):
        path = f"$.histograms.{hname}"
        bucket_sum = sum(b["count"] for b in h["buckets"])
        if bucket_sum != h["count"]:
            errors.append(
                f"{path}: bucket counts sum to {bucket_sum}, expected "
                f"count = {h['count']}")
        if not (h["p50_ns"] <= h["p99_ns"] <= h["p999_ns"]):
            errors.append(
                f"{path}: percentiles not monotone: p50 {h['p50_ns']} / "
                f"p99 {h['p99_ns']} / p999 {h['p999_ns']}")
        if h["count"] > 0 and h["p999_ns"] == 0:
            errors.append(
                f"{path}: nonempty histogram exports p999_ns = 0")
        if h["count"] > 0 and h["p999_ns"] > h["max_ns"]:
            errors.append(
                f"{path}: p999_ns {h['p999_ns']} exceeds max_ns "
                f"{h['max_ns']}")

    reconcile_ledger(report, errors)

    total = report.get("ops_processed_total", 0)
    trace = report.get("trace")
    if trace is None:
        return
    metrics = trace["metrics"]
    hist_ops = metrics["histograms"]["op_submit_to_done_ns"]["count"]
    if hist_ops != metrics["ops"]:
        errors.append(f"$.trace.metrics: histogram op count {hist_ops} != "
                      f"ops {metrics['ops']}")
    # Rings that overflowed (or domains whose stats the harness did not
    # record) legitimately break exact equality; otherwise it must hold.
    if metrics["dropped_records"] == 0 and total > 0 \
            and metrics["ops"] != total:
        errors.append(
            f"$.trace.metrics.ops ({metrics['ops']}) != ops_processed_total "
            f"({total}) with zero dropped records")


def reconcile_ledger(report, errors):
    """Bound-ledger identities: the Theorem 1 accounting must close."""
    ledger = report.get("bound_ledger")
    trace = report.get("trace")
    if ledger is None or trace is None:
        return
    metrics = trace["metrics"]
    attr = metrics["worker_attribution"]
    path = "$.trace.metrics.worker_attribution"

    # The five buckets are an exact partition of each worker's attributed
    # window — the replay charges every nanosecond to exactly one bucket.
    buckets = (attr["useful_ns"] + attr["steal_ns"] + attr["trapped_ns"]
               + attr["flag_wait_ns"] + attr["parked_ns"])
    if buckets != attr["attributed_ns"]:
        errors.append(
            f"{path}: bucket sum ({buckets}) != attributed_ns "
            f"({attr['attributed_ns']})")

    # Each worker's window is clamped to the session, so total attributed
    # time fits inside P * wall.
    budget = attr["worker_threads"] * ledger["wall_ns"]
    if attr["attributed_ns"] > budget:
        errors.append(
            f"{path}: attributed_ns ({attr['attributed_ns']}) > "
            f"worker_threads * wall_ns ({budget})")

    lpath = "$.bound_ledger"
    # A run executes inside the session, so its critical path fits the wall.
    if ledger["longest_run_span_ns"] > ledger["wall_ns"]:
        errors.append(
            f"{lpath}: longest_run_span_ns ({ledger['longest_run_span_ns']}) "
            f"> wall_ns ({ledger['wall_ns']})")
    if ledger["span_ns_total"] > ledger["work_ns"]:
        errors.append(
            f"{lpath}: span_ns_total ({ledger['span_ns_total']}) > work_ns "
            f"({ledger['work_ns']})")

    # Every ledger segment runs either inside a task slice (offline: useful)
    # or on a launcher between flag acquisition and reopen (offline: the
    # flag-wait bucket covers the collect phase the launch strand spans), so
    # online work must fit inside useful + flag_wait.  Timestamps straddle a
    # few instructions at pause/resume, hence the slack; a dropped record
    # invalidates the offline side entirely.
    if metrics["dropped_records"] == 0 and not metrics["pairing_degraded"]:
        offline = attr["useful_ns"] + attr["flag_wait_ns"]
        slack = offline * 0.02 + 10e6
        if ledger["work_ns"] > offline + slack:
            errors.append(
                f"{lpath}: work_ns ({ledger['work_ns']}) exceeds traced "
                f"useful_ns + flag_wait_ns ({offline}) beyond slack "
                f"({slack:.0f})")

    for i, d in enumerate(ledger.get("domains", [])):
        reconcile_ledger_domain(d, f"{lpath}.domains[{i}]", errors)


def reconcile_ledger_domain(d, dpath, errors):
    """Size-bucket tables of one ledger domain must account for every batch."""
    # note_batch books only clean, non-empty batches, so each carries >= 1 op.
    if d["ops"] < d["batches"]:
        errors.append(
            f"{dpath}: ops ({d['ops']}) < batches ({d['batches']}) — a "
            f"recorded batch is non-empty")
    # The span probe samples wall-before-path on entry and path-before-wall
    # on exit, so per-call span <= wall, hence the sums obey it too.
    if d["sum_bop_span_ns"] > d["sum_bop_wall_ns"]:
        errors.append(
            f"{dpath}: sum_bop_span_ns ({d['sum_bop_span_ns']}) > "
            f"sum_bop_wall_ns ({d['sum_bop_wall_ns']})")
    # Every note_batch call lands in exactly one size bucket on each side,
    # bumping that bucket's count and sum_ns with the same values as the
    # domain totals — both identities are exact.
    for table, total_key in (("bop_wall_by_size", "sum_bop_wall_ns"),
                             ("bop_span_by_size", "sum_bop_span_ns")):
        hists = d[table]
        count = sum(h["count"] for h in hists.values())
        if count != d["batches"]:
            errors.append(
                f"{dpath}.{table}: bucket counts sum to {count}, expected "
                f"batches = {d['batches']}")
        total = sum(h["sum_ns"] for h in hists.values())
        if total != d[total_key]:
            errors.append(
                f"{dpath}.{table}: bucket sums add to {total}, expected "
                f"{total_key} = {d[total_key]}")
    # A labeled domain is a span-profiled structure: its s(n) table is the
    # evidence the span_growth/<label> gate consumes, and that gate needs at
    # least two populated size buckets to form a growth ratio.
    if d.get("label"):
        populated = sum(1 for h in d["bop_span_by_size"].values()
                        if h["count"] > 0)
        if populated < 2:
            errors.append(
                f"{dpath}: labeled domain {d['label']!r} populates "
                f"{populated} span size-bucket(s); the span_growth gate "
                f"needs >= 2")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", required=True,
                        help="path to bench_report.schema.json")
    parser.add_argument("reports", nargs="+",
                        help="BENCH_<name>.json files to validate")
    args = parser.parse_args()

    with open(args.schema, encoding="utf-8") as f:
        schema = json.load(f)

    failed = False
    for path in args.reports:
        with open(path, encoding="utf-8") as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError as err:
                print(f"FAIL {path}: not valid JSON: {err}")
                failed = True
                continue
        errors = []
        validate(report, schema, "$", errors)
        if not errors:  # reconciliation reads fields schema-checked above
            reconcile(report, errors)
        if errors:
            failed = True
            print(f"FAIL {path}:")
            for err in errors:
                print(f"  {err}")
        else:
            trace_note = " (+trace)" if "trace" in report else ""
            print(f"OK   {path}: name={report['name']!r} "
                  f"metrics={len(report['metrics'])} "
                  f"ops_processed_total={report['ops_processed_total']}"
                  f"{trace_note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
