#!/usr/bin/env python3
"""Show that the benchmark's correctness checks bite.

Usage (from the root of the checkout):
  python3 perfbench/selftest.py

Runs every workload once with --corrupt 1, which falsifies one expectation
the benchmark computed itself: capture expects a header cc never read in
place of one it did, audit_ingest forgets one tainted process from the
from-scratch answer, lineage_query drops one ancestor from the DAG walk.
Each run must then exit nonzero and report "correct": false. Exits nonzero
if any corruption went unnoticed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    missed = 0
    for workload in workloads:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace", "0",
               "--corrupt", "1"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        caught = (done.returncode != 0 and result is not None
                  and result["correct"] is False)
        reasons = [l for l in done.stderr.splitlines() if "check failed" in l]
        print(f"{workload}: {'caught' if caught else 'MISSED'}"
              f" (exit {done.returncode}; {reasons[0] if reasons else ''})")
        missed += 0 if caught else 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
