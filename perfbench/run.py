#!/usr/bin/env python3
"""The repo benchmark's one command (see README.md).

    python3 perfbench/run.py --workload wire-open|publish-1m|reproduce \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. Builds the measuring program (perfbench/
plus the library sources under src/) with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs it, checks its result against BENCHMARK.json,
and prints the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric (and writes the run's spans as JSONL into the build
directory). Exits nonzero, printing no result, when the build or the run
fails or the result lacks a declared metric or breaks its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("wire-open", "publish-1m", "reproduce")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the measuring program; returns its path
    or None on failure. Build output goes to stderr."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != BENCH_DIR:
            shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def validate(result, trace):
    """Returns a list of problems with one run's result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    e2e, layers = declared()
    allowed = layers if trace else e2e
    for name, metric in result["metrics"].items():
        if name not in allowed:
            problems.append(f"metric {name} is not declared")
        elif metric.get("unit") != allowed[name]:
            problems.append(f"metric {name} has unit {metric.get('unit')}, "
                            f"declared {allowed[name]}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    for name in allowed:
        if name not in result["metrics"]:
            problems.append(f"metric {name} missing")
    return problems


def run_one(exe, workload, seed, seconds, trace, small=False):
    """Runs one measurement; returns (result object, its line as printed)
    or (None, None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir",
           os.path.dirname(exe)]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exit code {proc.returncode}")
        return None, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON: {lines[-1]!r}")
        return None, None
    problems = validate(result, trace)
    for p in problems:
        log(f"{workload}: {p}")
    return (None, None) if problems else (result, lines[-1])


def self_check(exe):
    """The benchmark's own test: planted defects must trip every output
    check, and a small run of every workload, in both modes, must emit
    every declared metric with its declared unit (run_one checks that)."""
    ok = subprocess.run([exe, "--self-check"], stdout=sys.stderr).returncode == 0
    for trace in (False, True):
        for workload in WORKLOADS:
            result, _ = run_one(exe, workload, 1, 2, trace, small=True)
            if result is None:
                ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to the benchmark; run from a checkout")
        return 1
    exe = build()
    if exe is None:
        return 1
    if args.self_check:
        return self_check(exe)
    if args.workload == "all":
        results = {}
        for workload in WORKLOADS:
            result, _ = run_one(exe, workload, args.seed, args.seconds,
                                bool(args.trace))
            if result is None:
                return 1
            results[workload] = result
        print(f"{'workload':12s} {'metric':36s} {'value':>16s} unit")
        for workload, result in results.items():
            for name, m in sorted(result["metrics"].items()):
                print(f"{workload:12s} {name:36s} {m['value']:16.6g} "
                      f"{m['unit']}")
        return 0 if all(r["correct"] for r in results.values()) else 1
    result, line = run_one(exe, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if result is None:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
