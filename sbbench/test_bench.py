#!/usr/bin/env python3
"""The benchmark's own test: shortened runs of every workload.

    python3 sbbench/test_bench.py

Each workload runs shortened (--quick) twice and must print the same
simulated-stats digest, every end-to-end metric and fail_frac; a
traced run must print every per-layer metric of BENCHMARK.json; a
planted wrong outcome must fail the correctness gate; and a directory
holding only BENCHMARK.json and sbbench/ must fail without a result.
Takes under a minute after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, cwd=ROOT, extra=()):
    """Run a shortened benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def digest(lines):
    found = [l for l in lines if l.startswith("digest ")]
    return found[0] if found else None


class BenchmarkTest(unittest.TestCase):
    def test_repeated_runs_agree_and_print_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, a = bench(workload)
                code_b, b = bench(workload)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertIsNotNone(digest(a))
                self.assertEqual(digest(a), digest(b))
                res = result(a)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for value in res["metrics"].values():
                    self.assertGreater(value["value"], 0)
                self.assertTrue(any(l.split()[:2] == ["metric", "fail_frac"]
                                    for l in a))

    def test_second_seed_passes_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, seed=2)
                self.assertEqual(code, 0)
                self.assertTrue(result(lines)["correct"])

    def test_traced_run_prints_every_per_layer_metric(self):
        want = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, trace=1)
                self.assertEqual(code, 0)
                res = result(lines)
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), want)

    def test_planted_wrong_outcome_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, extra=("--corrupt-cell", "0"))
                self.assertNotEqual(code, 0)
                self.assertFalse(result(lines)["correct"])

    def test_fails_without_the_simulator_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "sbbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "sbbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
