#!/usr/bin/env python3
"""Gates on bench JSON output, one subcommand per CI job.

  crypto-backends  paper_figures under a forced backend == the hw one's
  paper            paper_figures 200000 20000 == BENCH_paper.json, and the
                   gmean rows keep the paper's orderings and bands
  studies          paper_studies 200000 20000 == BENCH_studies.json, and the
                   studies keep the paper's claims as bands
  perfbench        perfbench/run.py runs are correct, fail no op, and every
                   sim_* metric == BENCH_perfbench.json
  degraded         a media-loss steins_fault campaign salvages, never silent
  attack           steins_attack --trials 1050 --seed 42 --json: never silent,
                   every cell injected, clean endurance audits, matrix and
                   endurance == BENCH_attack.json
  recovery-storm   recovery_storm 8: no silent or non-convergent recovery,
                   nested crashes fired, cells == BENCH_recovery.json
  store            store_matrix 200000 20000 == BENCH_store.json; the small
                   CI sweep keeps the 4-shard speedup and throughput; the
                   iso-resource sweep and the degraded curve keep their bands
  fault            steins_fault --trials 200 --seed 42 == BENCH_fault.json
                   (any --jobs: only the jobs field may differ)

.github/workflows/ci.yml runs the producing commands, e.g.

  ./build/bench/recovery_storm 8 --jobs 4 --json BENCH_recovery_ci.json
  python3 tools/ci/bench_gate.py recovery-storm --ci BENCH_recovery_ci.json

Exits 1 with every failed check listed.
"""
import argparse
import json
import sys

# The wrapper's jobs/crypto_backend fields describe the host run.
HOST_FIELDS = ("jobs", "crypto_backend")
# Members holding one section per figure or study.
NESTED_SECTIONS = ("figures", "studies")


def load(path):
    with open(path) as f:
        return json.load(f)


def exact(failures, got, want, key, got_path, want_path):
    """Require section `key` of two JSON documents to be equal."""
    same = got.get(key) == want.get(key)
    print(f"{got_path} {key}: {'identical' if same else 'DIFFERS'} to {want_path}")
    if not same:
        failures.append(f"{key} does not regenerate {want_path} exactly")


def simulated_sections(path):
    """Bench JSON as {figure, study or top-level member: value}, host fields
    dropped."""
    doc = load(path)
    sections = {k: v for k, v in doc.items() if k not in HOST_FIELDS + NESTED_SECTIONS}
    for nested in NESTED_SECTIONS:
        sections.update(doc.get(nested, {}))
    return sections


def exact_sections(got_path, want_path):
    failures = []
    got, want = simulated_sections(got_path), simulated_sections(want_path)
    for key in sorted(got.keys() | want.keys()):
        exact(failures, got, want, key, got_path, want_path)
    return failures


def gate_crypto_backends(args):
    return exact_sections(args.forced, args.hw)


def gate_fault(args):
    return exact_sections(args.ci, args.committed)


# Paper-shape bands on the gmean rows of BENCH_paper.json (normalized to the
# WB baseline of each figure). Each constant names the paper value it holds.
# Figs. 9/10/13/15: ASIT > STAR > Steins-GC (exec 1.20/1.12/~1.0, write
# latency 2.14/1.67/1.06, traffic 2/1.3/1.05, energy ASIT >> STAR >> Steins).
GC_ORDER_FIGS = ("fig09", "fig10", "fig13", "fig15")
# Figs. 9/10/13: Steins-GC stays near WB-GC (~1.0 exec, 1.06 write latency,
# 1.05 traffic).
STEINS_GC_MAX = 1.10
STEINS_GC_MAX_FIGS = ("fig09", "fig10", "fig13")
# Fig. 10: ASIT write latency 2.14x WB-GC.
FIG10_ASIT_MIN = 1.8
# Fig. 12: Steins-SC exec time 0.998x WB-SC.
FIG12_STEINS_SC_TOL = 0.03
# Fig. 13: ASIT writes one shadow entry per modification, 2x WB-GC traffic.
FIG13_ASIT_RANGE = (1.9, 2.1)
# Fig. 14: Steins-SC write traffic 1.01x WB-SC.
FIG14_STEINS_SC_MAX = 1.10
# Fig. 17 @4 MB: ASIT 0.02 s, STAR 0.065 s, Steins-GC 0.08 s, Steins-SC 0.44 s.
FIG17_PAPER_4MB = {"ASIT": 0.02, "STAR": 0.065, "Steins-GC": 0.08, "Steins-SC": 0.44}
FIG17_TOL = 0.5


def gmean(doc, fig):
    table = doc["figures"][fig]["table"]
    row = next(r for r in table["rows"] if r["label"] == "gmean")
    return dict(zip(table["columns"], row["values"]))


def paper_bands(doc):
    """(description, holds) for every paper-shape check on `doc`."""
    g = {fig: gmean(doc, fig) for fig in doc["figures"] if fig != "fig17"}
    lo, hi = FIG13_ASIT_RANGE
    checks = [(f"{f} ASIT > STAR > Steins-GC", g[f]["ASIT"] > g[f]["STAR"] > g[f]["Steins-GC"])
              for f in GC_ORDER_FIGS]
    checks += [(f"{f} Steins-GC <= {STEINS_GC_MAX}", g[f]["Steins-GC"] <= STEINS_GC_MAX)
               for f in STEINS_GC_MAX_FIGS]
    checks += [
        (f"fig10 ASIT >= {FIG10_ASIT_MIN}", g["fig10"]["ASIT"] >= FIG10_ASIT_MIN),
        ("fig11 Steins-GC lowest", g["fig11"]["Steins-GC"] < min(g["fig11"]["ASIT"],
                                                                 g["fig11"]["STAR"])),
        (f"fig12 |Steins-SC - 1| <= {FIG12_STEINS_SC_TOL}",
         abs(g["fig12"]["Steins-SC"] - 1) <= FIG12_STEINS_SC_TOL),
        ("fig12 Steins-GC > Steins-SC", g["fig12"]["Steins-GC"] > g["fig12"]["Steins-SC"]),
        (f"fig13 ASIT in [{lo}, {hi}]", lo <= g["fig13"]["ASIT"] <= hi),
        (f"fig14 Steins-SC <= {FIG14_STEINS_SC_MAX}",
         g["fig14"]["Steins-SC"] <= FIG14_STEINS_SC_MAX),
        ("fig16 Steins-SC < Steins-GC", g["fig16"]["Steins-SC"] < g["fig16"]["Steins-GC"]),
    ]
    table = doc["figures"]["fig17"]["table"]
    rows = [dict(zip(table["columns"], r["values"])) for r in table["rows"]]
    order = list(FIG17_PAPER_4MB)  # ASIT < STAR < Steins-GC < Steins-SC at every size
    checks += [(f"fig17 {r['label']} {' < '.join(order)}",
                all(row[a] < row[b] for a, b in zip(order, order[1:])))
               for r, row in zip(table["rows"], rows)]
    for col, paper in FIG17_PAPER_4MB.items():
        checks.append((f"fig17 {col} rises with cache size",
                       all(a[col] < b[col] for a, b in zip(rows, rows[1:]))))
        checks.append((f"fig17 4MB {col} within {FIG17_TOL:.0%} of {paper} s",
                       abs(rows[-1][col] - paper) <= FIG17_TOL * paper))
    return checks


def gate_paper(args):
    failures = exact_sections(args.ci, args.committed)
    bands = paper_bands(load(args.ci))
    failures += [f"paper shape: {what}" for what, holds in bands if not holds]
    print(f"{sum(holds for _, holds in bands)} of {len(bands)} paper-shape checks hold")
    return failures


# Paper-claim bands on BENCH_studies.json (bench/paper_studies.cpp). The
# storage, SIT/BMT and cache-size claims are exact relations; each constant
# below names the claim it holds.
# §I/§II-D: Steins recovery is cache-bounded, flat across 16 -> 256 MB
# (0.0038-0.0040 s).
RECOVERY_STEINS_FLAT = 1.1
# §I/§II-D: SCUE and BMT rebuild the whole tree, so recovery grows with
# capacity: at least this share of linear (16.0x and 14.4x for 16x).
RECOVERY_LINEAR_MIN = 0.75
# §IV-F: at equal total metadata cache, disjoint streams speed up at least
# this share of the controller count (2.00x / 2.82x / 5.68x at 2 / 3 / 6).
ISO_SPEEDUP_MIN = 0.9
# §IV-F: one hot DIMM is served by one controller: makespan stays flat.
SHARED_HOT_FLAT = 1.01
# §III-C/§III-E: the record-line and NV-buffer knobs are cheap by
# construction: every setting within 1% of 16 lines / 128 B on exec cycles.
KNOB_TOL = 0.01


def table_rows(table):
    """[(label, {column: value})] in row order."""
    return [(r["label"], dict(zip(table["columns"], r["values"]))) for r in table["rows"]]


def descending(values):
    return all(a > b for a, b in zip(values, values[1:]))


def study_bands(doc):
    """(description, holds) for every paper-claim check on `doc`."""
    studies = doc["studies"]
    storage = dict(table_rows(doc["table"]))
    gc, sc = storage["Steins-GC"], storage["Steins-SC"]
    checks = [
        ("storage SC leaves = GC leaves / 8", sc["leaves MB"] * 8 == gc["leaves MB"]),
        ("storage SC has one fewer level", sc["levels"] == gc["levels"] - 1),
    ]
    sit = dict(table_rows(studies["sit_vs_bmt"]["table"]))
    checks += [(f"sit_vs_bmt BMT {col} > WB-SIT", sit["BMT"][col] > sit["WB-SIT"][col])
               for col in ("write lat (cy)", "hashes/write")]

    recovery = table_rows(studies["recovery_scaling"]["table"])
    (small_label, small), (large_label, large) = recovery[0], recovery[-1]
    growth = int(large_label.removesuffix("MB")) / int(small_label.removesuffix("MB"))
    steins = [row["Steins-GC (s)"] for _, row in recovery]
    checks.append((f"recovery_scaling Steins-GC max/min <= {RECOVERY_STEINS_FLAT}",
                   max(steins) <= RECOVERY_STEINS_FLAT * min(steins)))
    checks += [(f"recovery_scaling {col} grows >= {RECOVERY_LINEAR_MIN} x {growth:.0f}x capacity",
                large[col] >= RECOVERY_LINEAR_MIN * growth * small[col])
               for col in ("SCUE (s)", "BMT (s)")]

    scaling = table_rows(studies["scalability"]["table"])
    checks += [(f"scalability {label} iso speedup >= {ISO_SPEEDUP_MIN} x controllers",
                row["iso speedup"] >= ISO_SPEEDUP_MIN * int(label.split()[0]))
               for label, row in scaling]
    hot = [row["shared-hot cy"] for _, row in scaling]
    checks.append((f"scalability shared-hot max/min <= {SHARED_HOT_FLAT}",
                   max(hot) <= SHARED_HOT_FLAT * min(hot)))

    cache = [row for _, row in table_rows(studies["cache_size"]["table"])]
    checks += [(f"cache_size {col} exec falls with cache size", descending([r[col] for r in cache]))
               for col in ("WB-GC", "Steins-GC")]
    checks.append(("cache_size Steins hit rate rises with cache size",
                   descending([r["Steins hit%"] for r in reversed(cache)])))

    knobs = table_rows(studies["steins_knobs"]["table"])
    ref = dict(knobs)["16 record lines"]["exec cycles"]
    checks += [(f"steins_knobs {label} exec within {KNOB_TOL:.0%} of 16 lines / 128 B",
                abs(row["exec cycles"] / ref - 1) <= KNOB_TOL) for label, row in knobs]
    return checks


def gate_studies(args):
    failures = exact_sections(args.ci, args.committed)
    bands = study_bands(load(args.ci))
    failures += [f"paper claim: {what}" for what, holds in bands if not holds]
    print(f"{sum(holds for _, holds in bands)} of {len(bands)} paper-claim checks hold")
    return failures


def gate_perfbench(args):
    """Each run is one `perfbench/run.py --trace 0` result line."""
    failures = []
    want = load(args.committed)["workloads"]
    runs = dict(run.split("=", 1) for run in args.runs)
    if runs.keys() != want.keys():
        failures.append(f"runs {sorted(runs)} != committed workloads {sorted(want)}")
    for name in sorted(runs.keys() & want.keys()):
        got = load(runs[name])
        if not got["correct"]:
            failures.append(f"{name}: correct is false")
        if got["failed"] > 0:
            failures.append(f"{name}: {got['failed']} of {got['attempted']} ops failed")
        sim = {k: m["value"] for k, m in got["metrics"].items() if k.startswith("sim_")}
        moved = sorted(k for k in sim.keys() | want[name].keys()
                       if sim.get(k) != want[name].get(k))
        # A metric at 0 reads the same on working and broken code.
        zero = sorted(k for k, v in want[name].items() if v == 0)
        print(f"{name}: {len(sim)} sim_* metrics, {len(moved)} moved")
        failures += [f"{name}: {k} = {sim.get(k)} != committed {want[name].get(k)}" for k in moved]
        failures += [f"{name}: committed {k} is 0 and gates nothing" for k in zero]
    return failures


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
    committed = load(args.committed)
    exact(failures, d["attack"], committed["attack"], "matrix", args.ci, args.committed)
    exact(failures, d, committed, "endurance", args.ci, args.committed)
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


# Bands on BENCH_store.json (bench/store_matrix.cpp).
# §IV-F: load-aware serving with group commit scales with shards.
MIN_SPEEDUP_4 = 1.5
# Ops/sec is a rate, so a small CI sizing compares against the committed
# full-sizing point directly; runner jitter stays clear of a 25% drop.
RATE_FLOOR = 0.75


def store_bands(doc):
    """(description, holds) for every serving_iso and degraded check on `doc`."""
    full = [row for _, row in table_rows(doc["serving_table"])]
    iso = table_rows(doc["serving_iso"])
    checks = [("serving_iso speedup rises with shards",
               descending([row["speedup"] for _, row in reversed(iso)]))]
    checks += [(f"serving_iso {label} speedup <= full-cache {f['speedup']:.2f}",
                row["speedup"] <= f["speedup"]) for (label, row), f in zip(iso, full)]

    cells = doc["degraded"]["cells"]
    keys = doc["degraded"]["keys"]
    checks += [(f"degraded {c['scheme']}/{c['dead_lines']} not {c['verdict']}",
                c["verdict"] not in ("silent-corruption", "recovery-crash-unrecoverable"))
               for c in cells]
    checks += [(f"degraded {c['scheme']}/{c['dead_lines']} keys_wrong == 0", c["keys_wrong"] == 0)
               for c in cells]
    checks += [(f"degraded {c['scheme']}/0 serves all {keys} keys", c["keys_ok"] == keys)
               for c in cells if c["dead_lines"] == 0]
    for scheme in dict.fromkeys(c["scheme"] for c in cells):
        curve = sorted((c["dead_lines"], c["keys_unavailable"]) for c in cells
                       if c["scheme"] == scheme)
        checks.append((f"degraded {scheme} keys_unavailable never falls as dead lines rise",
                       all(a[1] <= b[1] for a, b in zip(curve, curve[1:]))))
    return checks


def gate_store(args):
    failures = exact_sections(args.full, args.committed)
    committed, ci = load(args.committed), load(args.ci)
    for path, doc in ((args.ci, ci), (args.full, load(args.full))):
        bands = store_bands(doc)
        failures += [f"{path}: {what}" for what, holds in bands if not holds]
        print(f"{path}: {sum(holds for _, holds in bands)} of {len(bands)} store checks hold")

    got_speedup, want_speedup = ci["serving"]["speedup_4"], committed["serving"]["speedup_4"]
    print(f"ci speedup_4={got_speedup:.2f} committed={want_speedup:.2f}")
    if got_speedup < MIN_SPEEDUP_4:
        failures.append(f"4-shard serving speedup regressed: {got_speedup:.2f} < {MIN_SPEEDUP_4}")
    if want_speedup < MIN_SPEEDUP_4:
        failures.append(f"committed speedup_4 below the bar: {want_speedup:.2f} < {MIN_SPEEDUP_4}")
    rate_ci = ci["serving"]["rows"][-1]["kops_per_sec"]
    floor = RATE_FLOOR * committed["serving"]["rows"][-1]["kops_per_sec"]
    print(f"ci 4-shard={rate_ci:.0f} kops/s floor={floor:.0f}")
    if rate_ci < floor:
        failures.append(f"serving throughput regressed >25%: {rate_ci:.0f} < {floor:.0f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="gate", required=True)
    cb = sub.add_parser("crypto-backends", help="forced-backend paper figures == hw's")
    cb.add_argument("--hw", required=True, help="paper_figures --json under the hw backend")
    cb.add_argument("--forced", required=True, help="paper_figures --json under the forced one")
    cb.set_defaults(run=gate_crypto_backends)
    paper = sub.add_parser("paper", help="exact BENCH_paper.json + paper-shape bands")
    paper.add_argument("--ci", required=True, help="paper_figures JSON at 200000 20000")
    paper.add_argument("--committed", default="BENCH_paper.json")
    paper.set_defaults(run=gate_paper)
    studies = sub.add_parser("studies", help="exact BENCH_studies.json + paper-claim bands")
    studies.add_argument("--ci", required=True, help="paper_studies JSON at 200000 20000")
    studies.add_argument("--committed", default="BENCH_studies.json")
    studies.set_defaults(run=gate_studies)
    pb = sub.add_parser("perfbench", help="perfbench runs correct + sim_* == BENCH_perfbench.json")
    pb.add_argument("--run", dest="runs", action="append", required=True,
                    metavar="WORKLOAD=FILE",
                    help="one perfbench/run.py result per workload, at the committed seed/scale")
    pb.add_argument("--committed", default="BENCH_perfbench.json")
    pb.set_defaults(run=gate_perfbench)
    deg = sub.add_parser("degraded", help="media-loss campaign salvages, never silent")
    deg.add_argument("--json", required=True, help="steins_fault --json output")
    deg.set_defaults(run=gate_degraded)
    atk = sub.add_parser("attack", help="attack campaign clean + exact BENCH_attack.json")
    atk.add_argument("--ci", required=True, help="steins_attack --json output")
    atk.add_argument("--committed", default="BENCH_attack.json")
    atk.set_defaults(run=gate_attack)
    storm = sub.add_parser("recovery-storm", help="storm clean + exact BENCH_recovery.json")
    storm.add_argument("--ci", required=True, help="recovery_storm JSON")
    storm.add_argument("--committed", default="BENCH_recovery.json")
    storm.set_defaults(run=gate_recovery_storm)
    store = sub.add_parser("store", help="exact BENCH_store.json + serving and degraded bands")
    store.add_argument("--ci", required=True, help="store_matrix JSON at CI sizing (8000 0)")
    store.add_argument("--full", required=True, help="store_matrix JSON at 200000 20000")
    store.add_argument("--committed", default="BENCH_store.json")
    store.set_defaults(run=gate_store)
    fault = sub.add_parser("fault", help="exact BENCH_fault.json")
    fault.add_argument("--ci", required=True, help="steins_fault --trials 200 --seed 42 JSON")
    fault.add_argument("--committed", default="BENCH_fault.json")
    fault.set_defaults(run=gate_fault)
    args = parser.parse_args()

    failures = args.run(args)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
