#!/usr/bin/env python3
"""Check the Chrome trace_event files the benches export (trace_*.json).

Stdlib-only.  Every file must parse as a trace_event JSON object and carry:

  * at least one event, process_name and thread_name metadata ("M"), and at
    least one counter track ("C");
  * balanced slices: on every tid, each "B" is closed by a later "E" of the
    same name, innermost first, in file order and no earlier in time;
  * nested launches: every collect/run/complete "X" slice on a domain track
    lies inside a batch[n] "X" slice on the same tid.

Usage: check_chrome_trace.py TRACE.json [TRACE.json ...]
Prints one summary line per file and exits non-zero if any file fails (or
none was given), listing what failed.
"""

import bisect
import json
import sys

PHASES = ("collect", "run", "complete")
# Timestamps are microseconds with nanosecond fractions; a phase's end and
# its batch's end are computed separately, so allow float rounding.
EPS_US = 1e-6


def check_events(events):
    """Returns the list of problems found in one file's traceEvents."""
    problems = []
    if not events:
        return ["no trace events"]
    meta = {e.get("name") for e in events if e.get("ph") == "M"}
    for name in ("process_name", "thread_name"):
        if name not in meta:
            problems.append(f"no {name} metadata")
    if not any(e.get("ph") == "C" for e in events):
        problems.append("no counter tracks")

    open_slices = {}  # tid -> stack of (name, ts)
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "B":
            open_slices.setdefault(e["tid"], []).append((e["name"], e["ts"]))
        elif ph == "E":
            stack = open_slices.get(e["tid"])
            if not stack:
                problems.append(f"event {i}: E {e['name']!r} on tid "
                                f"{e['tid']} closes no open slice")
                continue
            name, ts = stack.pop()
            if name != e["name"]:
                problems.append(f"event {i}: E {e['name']!r} on tid "
                                f"{e['tid']} closes B {name!r}")
            if e["ts"] < ts:
                problems.append(f"event {i}: E {e['name']!r} on tid "
                                f"{e['tid']} ends before its B")
    for tid, stack in sorted(open_slices.items()):
        for name, _ in stack:
            problems.append(f"B {name!r} on tid {tid} never ends")

    batches = {}  # tid -> sorted [(start, end)]
    for e in events:
        if e.get("ph") == "X" and e["name"].startswith("batch["):
            batches.setdefault(e["tid"], []).append(
                (e["ts"], e["ts"] + e["dur"]))
    for spans in batches.values():
        spans.sort()
    for i, e in enumerate(events):
        if e.get("ph") != "X" or e["name"] not in PHASES:
            continue
        spans = batches.get(e["tid"], [])
        start, end = e["ts"], e["ts"] + e["dur"]
        k = bisect.bisect_right(spans, (start + EPS_US, float("inf"))) - 1
        if k < 0 or spans[k][0] > start + EPS_US or spans[k][1] < end - EPS_US:
            problems.append(f"event {i}: {e['name']!r} X on tid {e['tid']} "
                            f"at {start} lies in no batch slice")
    return problems


def check_file(path):
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    problems = check_events(events)
    if not problems:
        counters = sorted({e["name"] for e in events if e.get("ph") == "C"})
        print(f"{path}: {len(events)} events, counters {counters}")
    return problems


def main(argv):
    if not argv:
        print("no Chrome traces given", file=sys.stderr)
        return 1
    failed = False
    for path in argv:
        try:
            problems = check_file(path)
        except (OSError, ValueError, KeyError) as err:
            problems = [f"cannot read: {err}"]
        for p in problems[:20]:
            print(f"{path}: {p}", file=sys.stderr)
        if len(problems) > 20:
            print(f"{path}: ... {len(problems) - 20} more", file=sys.stderr)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
