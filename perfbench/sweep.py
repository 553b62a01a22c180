#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results.

Usage (from the root of the checkout):
  python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]

Runs untraced, for BENCHMARK.json's run_seconds, and appends one JSON line
per run to --out:
  {"workload": ..., "seed": ..., "exit": ..., "result": {...}}
perfbench/compare.py reads these files.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            record = {"workload": workload, "seed": seed,
                      "exit": done.returncode,
                      "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            ok = done.returncode == 0 and result is not None
            status = status or (0 if ok else 1)
            print(f"{workload} seed {seed}: exit {done.returncode}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
