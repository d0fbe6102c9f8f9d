#!/usr/bin/env python3
"""Gates on bench JSON output, one subcommand per CI job.

kv-serving: BENCH_kv.json is a deterministic simulated trajectory, so a
paper-scale run must regenerate its rows exactly; the small CI sweep
must keep the 4-shard serving speedup and throughput.

  ./build/bench/kv_throughput 8000 0 --jobs 2 --json kv_serving_ci.json
  ./build/bench/kv_throughput 200000 20000 --jobs 2 --json kv_full.json
  python3 tools/ci/bench_gate.py kv-serving --ci kv_serving_ci.json \\
      --full kv_full.json --committed BENCH_kv.json

Exits 1 with every failed check listed.
"""
import argparse
import json
import sys

# Sections of BENCH_kv.json that a paper-scale run reproduces bit-exactly
# (the wrapper's jobs/crypto_backend fields describe the host run).
KV_EXACT_SECTIONS = ("table", "serving", "serving_table")
MIN_SPEEDUP_4 = 1.5
# The CI sweep is smaller than the committed run, so its absolute rate
# gets the same 25% floor as the perf-smoke job.
RATE_FLOOR = 0.75


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_kv_serving(args):
    failures = []
    committed = load(args.committed)
    full = load(args.full)
    for key in KV_EXACT_SECTIONS:
        same = full.get(key) == committed.get(key)
        print(f"{args.full} {key}: {'identical' if same else 'DIFFERS'} to {args.committed}")
        if not same:
            failures.append(f"{key} does not regenerate {args.committed} exactly")

    ci = load(args.ci)["serving"]
    want = committed["serving"]
    got_speedup, want_speedup = ci["speedup_4"], want["speedup_4"]
    print(f"ci speedup_4={got_speedup:.2f} committed={want_speedup:.2f}")
    if got_speedup < MIN_SPEEDUP_4:
        failures.append(f"4-shard serving speedup regressed: {got_speedup:.2f} < {MIN_SPEEDUP_4}")
    if want_speedup < MIN_SPEEDUP_4:
        failures.append(f"committed speedup_4 below the bar: {want_speedup:.2f} < {MIN_SPEEDUP_4}")
    rate_ci = ci["rows"][-1]["kops_per_sec"]
    floor = RATE_FLOOR * want["rows"][-1]["kops_per_sec"]
    print(f"ci 4-shard={rate_ci:.0f} kops/s floor={floor:.0f}")
    if rate_ci < floor:
        failures.append(f"serving throughput regressed >25%: {rate_ci:.0f} < {floor:.0f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    kv = sub.add_parser("kv-serving", help="BENCH_kv.json exact rows + serving scaling")
    kv.add_argument("--ci", required=True, help="kv_throughput JSON at CI sizing")
    kv.add_argument("--full", required=True, help="kv_throughput JSON at 200000 20000")
    kv.add_argument("--committed", default="BENCH_kv.json")
    kv.set_defaults(run=gate_kv_serving)
    args = parser.parse_args()

    failures = args.run(args)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
