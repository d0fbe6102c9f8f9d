#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload spec-read --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
the workload for --seconds and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics and writes the sampled
spans to .bench_build/spans/. The metric names and units must match
BENCHMARK.json; a mismatch, a failed build or a crashed run exits non-zero
without printing a result. perfbench/README.md describes every metric.

One process runs the workload for the whole --seconds, so the fast tail of
its passes (perfbench/src/bench.hpp, HostStats) is taken over all of them.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("spec-read", "persist-crash", "kv-serve", "lsm-a")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def last_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    return result


def check_metrics(result, trace):
    """The result in BENCHMARK.json's metric order. A per-layer metric the
    workload did not print is a layer it never calls, and a run that failed
    its checks may stop before computing some metrics: both print as 0."""
    got = result["metrics"]
    want = expected_metrics(trace)
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in got if n in want and got[n]["unit"] != want[n])
    complete = trace or not result["correct"]
    missing = [] if complete else sorted(set(want) - set(got))
    if extra or units or missing:
        raise ValueError("metrics disagree with BENCHMARK.json: extra %s, units %s, missing %s"
                         % (extra, units, missing))
    result["metrics"] = {n: got.get(n, {"value": 0, "unit": u}) for n, u in want.items()}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every input size (the smoke tests use small sizes)")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--scale", repr(args.scale)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print("perfbench: run exited with %d" % proc.returncode, file=sys.stderr)
            return 1
        result = check_metrics(last_line(proc.stdout), args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
