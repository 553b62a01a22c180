#!/usr/bin/env python3
"""Compare two sets of benchmark runs (for example parent and change).

Usage:
  python3 perfbench/compare.py A.jsonl [B.jsonl]

Each file holds the JSON lines perfbench/sweep.py writes. For every workload
and end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles (statistics.quantiles, n=4), the quartile spread as a share of the
median against the metric's bound, and each side's attempted/failed
operation counts. With two sets it also prints how far B's median is from
A's in the worse direction and whether that stays within the bound. Exits
nonzero when a spread or a difference exceeds its bound, or when a run
failed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(records, metric):
    values = [r["result"]["metrics"][metric]["value"] for r in records
              if r["result"] and metric in r["result"]["metrics"]]
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": spread}


def counts(records):
    attempted = sum(r["result"]["attempted"] for r in records if r["result"])
    failed = sum(r["result"]["failed"] for r in records if r["result"])
    bad = sum(1 for r in records
              if r["exit"] != 0 or not r["result"]
              or not r["result"]["correct"])
    return attempted, failed, bad


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(p) for p in sys.argv[1:]]
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"== {workload}")
        for label, runs in zip("AB", sets):
            records = runs.get(workload, [])
            attempted, failed, bad = counts(records)
            print(f"  {label}: {len(records)} runs, attempted {attempted}, "
                  f"failed {failed}, runs incorrect or nonzero exit {bad}")
            if bad or not records:
                status = 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:<24} bound {bound:<5}"
            stats = [summary(runs.get(workload, []), name) for runs in sets]
            for label, s in zip("AB", stats):
                if s is None:
                    line += f" | {label}: no data"
                    status = 1
                    continue
                flag = ""
                if s["spread"] > bound:
                    flag = " SPREAD>BOUND"
                    status = 1
                line += (f" | {label}: med {s['median']:.6g} "
                         f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                         f"spread {s['spread']:.4f}{flag}")
            if len(stats) == 2 and stats[0] and stats[1]:
                a, b = stats[0]["median"], stats[1]["median"]
                worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                verdict = "within bound" if worse <= bound else "WORSE"
                if worse > bound:
                    status = 1
                line += f" | B worse by {worse:+.4f}: {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
