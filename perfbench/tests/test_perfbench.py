#!/usr/bin/env python3
"""Self-test for the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload at a tiny scale, traced and untraced, twice each, and
checks that the output parses, that every metric BENCHMARK.json names is
emitted with its unit, and that simulated results repeat exactly across the
two invocations. Also checks that the benchmark refuses, without printing a
result, when the simulator sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)


def invoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload: str, trace: int) -> dict:
    path = os.path.join(run.build_dir(), "results", f"{workload}-seed3-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


class TinyWorkloads(unittest.TestCase):
    def check(self, trace: int, contract_key: str) -> None:
        expected = {m["name"]: m["unit"] for m in CONTRACT[contract_key]}
        for w in CONTRACT["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                seen = []
                for _ in range(2):
                    proc = invoke(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
                    out = last_json(proc)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual(set(out["metrics"]), set(expected))
                    for metric, unit in expected.items():
                        self.assertEqual(out["metrics"][metric]["unit"], unit, metric)
                        self.assertIsInstance(out["metrics"][metric]["value"], (int, float))
                    seen.append(record(name, trace))
                first, second = seen
                self.assertTrue(first["sim"])
                self.assertEqual(first["sim"], second["sim"])
                if trace:
                    for k in run.EXACT_PER_LAYER:
                        self.assertEqual(first["metrics"][k], second["metrics"][k], k)

    def test_end_to_end_metrics(self) -> None:
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self) -> None:
        self.check(1, "per_layer")

    def test_contract_matches_runner(self) -> None:
        self.assertEqual({w["name"] for w in CONTRACT["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"] for m in CONTRACT["end_to_end"]},
                         set(run.END_TO_END_UNITS))
        self.assertEqual({m["name"] for m in CONTRACT["per_layer"]},
                         set(run.PER_LAYER_UNITS))

    def test_refuses_without_sources(self) -> None:
        bare = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = invoke(CONTRACT["workloads"][0]["name"], 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
