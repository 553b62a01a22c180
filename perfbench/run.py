#!/usr/bin/env python3
"""Build the PASSv2 benchmark from the sources in this checkout and run it.

Usage (from the root of the checkout):
  python3 perfbench/run.py --workload capture|audit_ingest|lineage_query \
      --seed N --seconds S --trace 0|1 [--corrupt 1]

The C++ benchmark (perfbench/*.cc, its own CMakeLists.txt) is built, with the
library sources under src/, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of standard output is the run's JSON
result. A traced run (--trace 1) also leaves layers.json and trace.json under
<build dir>/out/<workload>/ and checks the trace with tools/check_trace.py.
The exit code is nonzero when the build fails or any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("capture", "audit_ingest", "lineage_query")
# The binary stops starting iterations after --seconds; the last one, its
# checks and the traced run's output files fit in this margin.
RUN_MARGIN_S = 150


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the benchmark binary's path."""
    bdir = build_dir()
    log = sys.stderr
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, env=env)
    subprocess.run(["cmake", "--build", bdir, "-j4"],
                   check=True, stdout=log, stderr=log, env=env)
    return os.path.join(bdir, "perfbench")


def check_trace(path):
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    if not os.path.exists(checker):
        print(f"perfbench: {checker} not found", file=sys.stderr)
        return False
    done = subprocess.run([sys.executable, checker, path],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir(), "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--corrupt", str(args.corrupt)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: no result (exit {done.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: bad result line: {lines[-1]}", file=sys.stderr)
        return 1
    code = done.returncode
    if args.trace and not check_trace(os.path.join(out_dir, "trace.json")):
        result["correct"] = False
        code = code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
