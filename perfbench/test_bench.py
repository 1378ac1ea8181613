#!/usr/bin/env python3
"""End-to-end tests of the benchmark itself.

    python3 perfbench/test_bench.py          # from the repository root

Each workload runs briefly on a seed no tuning run used, untraced and
traced; its result line must be well formed, correct, and name exactly
the metrics BENCHMARK.json declares, with the declared units. A copy of
the benchmark without the repository beside it must fail without a
result. The quantile rules and the serve mix are unit-tested in Rust
(`cargo test --manifest-path perfbench/Cargo.toml`).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 424_242


def bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class HeldOutSeed(unittest.TestCase):
    def run_one(self, workload, trace):
        done = bench(ROOT, "--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "2", "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(
            [(n, m["unit"]) for n, m in result["metrics"].items()],
            [(m["name"], m["unit"]) for m in declared])
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return result

    def test_train_auth(self):
        for trace in (0, 1):
            self.run_one("train_auth", trace)

    def test_enroll(self):
        for trace in (0, 1):
            self.run_one("enroll", trace)

    def test_serve(self):
        m = self.run_one("serve", 1)["metrics"]
        self.assertGreater(m["batcher.mean_batch"]["value"], 1.0)
        self.run_one("serve", 0)


class BareCopy(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            done = bench(tmp, "--workload", "serve", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
