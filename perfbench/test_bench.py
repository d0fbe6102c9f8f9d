#!/usr/bin/env python3
"""Tests of the repository benchmark, at tiny input sizes.

Run from anywhere:  python3 perfbench/test_bench.py

- smoke: every workload, in both modes, prints every metric BENCHMARK.json
  lists with its unit, reports correct, and fails no op (fail_frac == 0);
- determinism: two runs of one seed print identical simulated metrics.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec-read", "persist-crash", "kv-serve", "lsm-a")
SCALE = "0.02"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s"
                             % (workload, trace, proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_smoke_every_workload(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, 7, trace)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"] / result["attempted"], 0.0)

    def test_same_seed_sim_metrics_identical(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run(workload, 5, 0), run(workload, 5, 0)
                sim = sorted(n for n in first["metrics"] if n.startswith("sim_"))
                self.assertEqual(len(sim), 6)
                for name in sim:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
