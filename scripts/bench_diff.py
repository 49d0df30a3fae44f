#!/usr/bin/env python3
"""Gate on exact work counters: compare a bench's metrics report with a
committed baseline of its stage counters.

Usage (from the repository root):
  scripts/bench_diff.py BASELINE REPORT          exit 1 on any difference
  scripts/bench_diff.py --record REPORT BASELINE write BASELINE from REPORT

REPORT is a grouplink.metrics.v1 document (a bench's --metrics-json).
Compared: every stage counter of every run, except those that describe
how the work ran rather than the work itself (IGNORED). Runs are matched
in order and must agree on strategy, records and groups. Seconds,
timings and the run's thread count are ignored. The counters are exact
and equal at any thread count, so a difference means the work changed;
a change that moves a counter on purpose records the new baseline in the
same commit, which makes the move an explicit, reviewed edit.
"""

import argparse
import json
import sys

SCHEMA = "grouplink.counters.v1"
IGNORED = ("threads_used",)
RUN_KEYS = ("strategy", "records", "groups")


def counters_of(report):
    """The baseline form of a metrics report: per run, its identity and
    each stage's counters, minus IGNORED."""
    if report.get("schema") != "grouplink.metrics.v1":
        raise ValueError("not a grouplink.metrics.v1 report")
    runs = []
    for run in report["runs"]:
        stages = []
        for stage in run["stages"]:
            counters = {k: v for k, v in stage["counters"].items() if k not in IGNORED}
            stages.append({"stage": stage["stage"], "counters": counters})
        entry = {key: run[key] for key in RUN_KEYS}
        entry["stages"] = stages
        runs.append(entry)
    return {"schema": SCHEMA, "experiment": report.get("experiment", ""),
            "ignored": list(IGNORED), "runs": runs}


def diff(baseline, current):
    """Every difference between two baselines, one line each."""
    out = []
    if baseline.get("experiment") != current.get("experiment"):
        out.append(f"experiment: baseline {baseline.get('experiment')!r}, "
                   f"now {current.get('experiment')!r}")
    want, got = baseline["runs"], current["runs"]
    if len(want) != len(got):
        out.append(f"runs: baseline {len(want)}, now {len(got)}")
    for i, (a, b) in enumerate(zip(want, got)):
        name = f"run {i} ({', '.join(str(a[k]) for k in RUN_KEYS)})"
        ids = [k for k in RUN_KEYS if a[k] != b[k]]
        if ids:
            out.append(f"{name}: now {', '.join(f'{k}={b[k]!r}' for k in ids)}")
            continue
        a_stages = [s["stage"] for s in a["stages"]]
        b_stages = [s["stage"] for s in b["stages"]]
        if a_stages != b_stages:
            out.append(f"{name}: stages {a_stages}, now {b_stages}")
            continue
        for sa, sb in zip(a["stages"], b["stages"]):
            for key in sorted(set(sa["counters"]) | set(sb["counters"])):
                va = sa["counters"].get(key, "absent")
                vb = sb["counters"].get(key, "absent")
                if va != vb:
                    out.append(f"{name} {sa['stage']}.{key}: baseline {va}, now {vb}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the baseline (second path) from the report (first path)")
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args()

    if args.record:
        with open(args.first) as f:
            baseline = counters_of(json.load(f))
        with open(args.second, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
        print(f"bench_diff: recorded {len(baseline['runs'])} runs into {args.second}")
        return 0

    with open(args.first) as f:
        baseline = json.load(f)
    if baseline.get("schema") != SCHEMA:
        print(f"bench_diff: {args.first} is not a {SCHEMA} baseline", file=sys.stderr)
        return 2
    with open(args.second) as f:
        current = counters_of(json.load(f))
    differences = diff(baseline, current)
    for line in differences:
        print(f"bench_diff: {line}")
    if differences:
        print(f"bench_diff: {len(differences)} counter differences against {args.first}; "
              "if the change is intended, re-record it with --record", file=sys.stderr)
        return 1
    counters = sum(len(s["counters"]) for r in baseline["runs"] for s in r["stages"])
    print(f"bench_diff: {counters} counters in {len(baseline['runs'])} runs equal the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
