#!/usr/bin/env python3
"""Gates on bench JSON output, one subcommand per CI job.

  crypto-backends  steins_sim matrix under a forced backend == the hw one's
  e2e              e2e_throughput ops/s within 25% of BENCH_e2e.json
  degraded         a media-loss steins_fault campaign salvages, never silent
  attack           attack_campaign: never silent, every cell injected, clean
                   endurance audits, matrix == BENCH_attack.json
  recovery-storm   recovery_storm 8: no silent or non-convergent recovery,
                   nested crashes fired, cells == BENCH_recovery.json
  kv-serving       kv_throughput 200000 20000 rows == BENCH_kv.json; the
                   small CI sweep keeps the 4-shard speedup and throughput

.github/workflows/ci.yml runs the producing commands, e.g.

  ./build/bench/recovery_storm 8 --jobs 4 --json BENCH_recovery_ci.json
  python3 tools/ci/bench_gate.py recovery-storm --ci BENCH_recovery_ci.json

Exits 1 with every failed check listed.
"""
import argparse
import json
import sys

# Sections of BENCH_kv.json that a paper-scale run reproduces bit-exactly
# (the wrapper's jobs/crypto_backend fields describe the host run).
KV_EXACT_SECTIONS = ("table", "serving", "serving_table")
MIN_SPEEDUP_4 = 1.5
# Ops/sec is a rate, so a small CI sizing compares against the committed
# full-sizing point directly; runner jitter stays clear of a 25% drop.
RATE_FLOOR = 0.75


def load(path):
    with open(path) as f:
        return json.load(f)


def exact(failures, got, want, key, got_path, want_path):
    """Require section `key` of two JSON documents to be equal."""
    same = got.get(key) == want.get(key)
    print(f"{got_path} {key}: {'identical' if same else 'DIFFERS'} to {want_path}")
    if not same:
        failures.append(f"{key} does not regenerate {want_path} exactly")


def gate_crypto_backends(args):
    failures = []
    hw, forced = load(args.hw), load(args.forced)
    for key in ("columns", "rows"):
        if forced[key] != hw[key]:
            failures.append(f"{key} differ from the hw backend's")
    if not failures:
        print(f"ok: {len(hw['rows'])} rows identical to hw")
    return failures


def gate_e2e(args):
    ci, committed = load(args.ci), load(args.committed)
    got, want = ci["total_ops_per_sec"], committed["total_ops_per_sec"]
    floor = RATE_FLOOR * want
    print(f"ci={got:.0f} ops/s committed={want:.0f} ops/s floor={floor:.0f}")
    if got < floor:
        return [f"e2e throughput regressed >25%: {got:.0f} < {floor:.0f}"]
    return []


def gate_degraded(args):
    failures = []
    d = load(args.json)
    if d["silent_total"] != 0:
        failures.append(f"silent corruption: {d['silent_total']}")
    if d["salvaged_total"] <= 0:
        failures.append("no salvaged verdicts: ECC/quarantine path untested")
    if not failures:
        print(f"ok: salvaged={d['salvaged_total']} silent=0")
    return failures


def gate_attack(args):
    failures = []
    d = load(args.ci)
    cells = d["attack"]["matrix"]
    silent = sum(c["silent_corruption"] for c in cells)
    uninjected = [f"{c['scheme']}/{c['scenario']}" for c in cells if c["injected"] == 0]
    if silent != 0:
        failures.append(f"silent corruption: {silent}")
    if uninjected:
        failures.append(f"cells never injected: {uninjected}")
    for rep in d["endurance"]:
        if rep["audit_mismatches"] != 0 or not rep["recovery_clean"]:
            failures.append(f"endurance audit failed: {rep}")
    exact(failures, d["attack"], load(args.committed)["attack"], "matrix", args.ci,
          args.committed)
    if not failures:
        print(f"ok: {len(cells)} cells, silent=0, every cell injected")
    return failures


def gate_recovery_storm(args):
    failures = []
    d = load(args.ci)
    cells = d["cells"]
    silent = sum(c["verdicts"]["silent"] for c in cells)
    unrec = sum(c["verdicts"]["unrecoverable"] for c in cells)
    retried = sum(c["verdicts"]["recovered_after_retry"] for c in cells)
    if silent != 0:
        failures.append(f"silent corruption: {silent}")
    if unrec != 0:
        failures.append(f"non-convergent recoveries: {unrec}")
    if retried <= 0:
        failures.append("no recovered-after-retry verdicts: nested crashes never fired")
    exact(failures, d, load(args.committed), "cells", args.ci, args.committed)
    if not failures:
        print(f"ok: {len(cells)} cells, silent=0, unrecoverable=0, retried={retried}")
    return failures


def gate_kv_serving(args):
    failures = []
    committed = load(args.committed)
    full = load(args.full)
    for key in KV_EXACT_SECTIONS:
        exact(failures, full, committed, key, args.full, args.committed)

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
    cb = sub.add_parser("crypto-backends", help="forced-backend sim matrix == hw's")
    cb.add_argument("--hw", required=True, help="steins_sim --json under the hw backend")
    cb.add_argument("--forced", required=True, help="steins_sim --json under the forced one")
    cb.set_defaults(run=gate_crypto_backends)
    e2e = sub.add_parser("e2e", help="e2e throughput within 25%% of BENCH_e2e.json")
    e2e.add_argument("--ci", required=True, help="e2e_throughput JSON at CI sizing")
    e2e.add_argument("--committed", default="BENCH_e2e.json")
    e2e.set_defaults(run=gate_e2e)
    deg = sub.add_parser("degraded", help="media-loss campaign salvages, never silent")
    deg.add_argument("--json", required=True, help="steins_fault --json output")
    deg.set_defaults(run=gate_degraded)
    atk = sub.add_parser("attack", help="attack campaign clean + exact BENCH_attack.json")
    atk.add_argument("--ci", required=True, help="attack_campaign JSON")
    atk.add_argument("--committed", default="BENCH_attack.json")
    atk.set_defaults(run=gate_attack)
    storm = sub.add_parser("recovery-storm", help="storm clean + exact BENCH_recovery.json")
    storm.add_argument("--ci", required=True, help="recovery_storm JSON")
    storm.add_argument("--committed", default="BENCH_recovery.json")
    storm.set_defaults(run=gate_recovery_storm)
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
