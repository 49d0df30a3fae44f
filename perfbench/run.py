#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {batch,serve,paged} \
        --seed 42 --seconds 20 --trace {0,1}

The harness (perfbench/src, linked against the grouplink library built
from ../src) is compiled into .bench_build/ on first use. The last line of
standard output is the result:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced with the same seed, and
reports every per-layer metric of the traced run plus
trace_overhead.<metric> (traced minus untraced) for each end-to-end metric;
a per-layer metric of a call the workload never makes (batch issues no
queries, only paged reads pages) reads 0 and is listed under
"not_exercised" in the report. The spans are written to
.bench_build/traces/. The line before the result is the harness's full
report: provenance, correctness gates, workload properties, sample counts.

A failed build or correctness gate exits non-zero without a result line.
"""

import argparse
import hashlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 42
# A run must finish within 180 s of its start, the build excepted.
RUN_BUDGET_S = 170.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}", 2)
    return spec


def build():
    """Configures and builds the harness; build output goes to stderr."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(BUILD_DIR), "-j", "3"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 2)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the library and benchmark sources (code and build files,
    not docs), so a result names the code it measured even where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.suffix in (".cc", ".h", ".py") or path.name == "CMakeLists.txt":
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_harness(args, traced, deadline, provenance):
    command = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--work-dir={WORK_DIR}",
               f"--git-sha={provenance[0]}", f"--source-digest={provenance[1]}"]
    if traced:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        trace_out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace", f"--trace-out={trace_out}"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the run")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} run exceeded its time budget", 3)
    if done.returncode != 0:
        fail(f"the {args.workload} run failed (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the harness printed no report")
    return json.loads(lines[-1])


def check_declared(metrics, declared):
    """The result must hold exactly the declared metrics, in their units."""
    missing = sorted(set(declared) - set(metrics))
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not reported: {missing}", 4)
    for name, metric in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json", 4)
        if declared[name] != metric["unit"]:
            fail(f"metric {name} reports unit {metric['unit']}, "
                 f"BENCHMARK.json says {declared[name]}", 4)


def main():
    # A termination request unwinds through subprocess.run, which kills and
    # reaps the running build step or harness before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    provenance = (git_sha(), source_digest())

    report = run_harness(args, False, deadline, provenance)
    metrics = report["end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        untraced = metrics
        report = run_harness(args, True, deadline, provenance)
        metrics = dict(report["per_layer"])
        for name, metric in report["end_to_end"].items():
            metrics[f"trace_overhead.{name}"] = {
                "value": metric["value"] - untraced[name]["value"],
                "unit": metric["unit"]}
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["not_exercised"] = sorted(set(declared) - set(metrics))
        for name in report["not_exercised"]:
            metrics[name] = {"value": 0, "unit": declared[name]}
    check_declared(metrics, declared)

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
