#!/usr/bin/env python3
"""Simulator-speed benchmark entry point.

    python3 perfbench/run.py --workload <fleet_mix|fleet_observed|llm_tp>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds libdtusim from src/ and
the driver in perfbench/ into .bench_build/perfbench (incrementally),
runs one workload, and forwards the driver's output: progress on
stderr, and as the last line of stdout one JSON object with
"correct", "attempted", "failed" and "metrics". With --trace 1 the
traced run's spans are written to .bench_build/perfbench/spans/.

Exits nonzero without printing a result when the checkout holds no
simulator source to build, and nonzero when any output check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DIGESTS = HERE / "digests.txt"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    """Configure (first time) and build the driver; exit on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator source at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--digests", str(DIGESTS),
           "--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    code, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"perfbench: driver printed no result (exit {code})")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
