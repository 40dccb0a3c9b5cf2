#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks on short traces that
every workload prints every metric BENCHMARK.json names, with its unit,
that a recorded digest is checked and a wrong one fails the run, and
that run.py refuses a checkout without simulator source.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORK = run.BUILD / "test"
# The short configuration digests.txt records for seed 1.
SHORT = ["--seed", "1", "--seconds", "0", "--requests", "16",
         "--traces", "1"]


def drive(workload, trace, digests=run.DIGESTS, spans=None):
    cmd = [str(run.DRIVER), "--workload", workload, "--trace", str(trace),
           "--digests", str(digests)] + SHORT
    if spans:
        cmd += ["--spans", str(spans)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        WORK.mkdir(parents=True, exist_ok=True)

    def check_metrics(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("(recorded)", proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in wanted}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(drive(w["name"], 0),
                                   SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric_and_spans(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                spans = WORK / f"spans-{w['name']}.json"
                self.check_metrics(drive(w["name"], 1, spans=spans),
                                   SPEC["per_layer"])
                events = json.loads(spans.read_text())["traceEvents"]
                names = {e["name"] for e in events}
                self.assertIn("serve.serveFleet", names)
                self.assertIn("compiler.compile", names)
                self.assertIn("runtime.Executor::run", names)

    def test_wrong_recorded_digest_fails_the_run(self):
        wrong = WORK / "wrong-digests.txt"
        wrong.write_text("fleet_mix 1 16 1 0000000000000000\n")
        proc = drive("fleet_mix", 0, digests=wrong)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("differs from the recorded", proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])

    def test_checkout_without_source_fails_without_a_result(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet_mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
