#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark on small inputs (about two minutes).

Run from the repository root:

    python3 -m unittest discover -s e2e_bench/tests -v

It checks that every workload prints each BENCHMARK.json metric exactly once
with its unit, that the traced mode writes its span file and prints every
per-layer metric, that a failed output check exits non-zero, and that the
benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Small campaigns and one-second loops: fast, same code paths.
SMALL = ["--seconds", "1", "--scale", "0.25"]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = {k for k in keys if keys.count(k) > 1}
    if dupes:
        raise ValueError(f"duplicate keys {sorted(dupes)}")
    return dict(pairs)


def run(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "e2e_bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900, env=env)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return proc, result


class EndToEndBenchmark(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_each_workload_prints_every_metric_once(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = run("--workload", w["name"], "--trace", "0", *SMALL)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["end_to_end"])

    def test_traced_run_writes_spans_and_layer_metrics(self):
        proc, result = run("--workload", "lab1_batch", "--trace", "1", *SMALL)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.check_metrics(result, BENCH["per_layer"])
        span_line = next(l for l in proc.stdout.splitlines()
                         if l.startswith("# span file: "))
        spans = json.loads(Path(span_line.split(": ", 1)[1]).read_text())
        names = {e["name"] for e in spans["traceEvents"]}
        self.assertTrue({"setup", "round", "replay", "api.submit_video",
                         "trajectory.extract", "room.layout"} <= names)

    def test_failed_output_check_exits_nonzero(self):
        for workload in ("lab1_batch", "lab1_refresh"):
            with self.subTest(workload=workload):
                proc, result = run("--workload", workload, "--trace", "0",
                                   "--inject-mismatch", *SMALL)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("CHECK FAILED", proc.stdout)

    def test_refuses_to_run_without_program_sources(self):
        alone = ROOT / ".bench_build" / "selftest_alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(ROOT / "e2e_bench", alone / "e2e_bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc, result = run("--workload", "lab1_batch", cwd=alone, env=env)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
