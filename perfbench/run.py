#!/usr/bin/env python3
"""Build the MMT simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload fig5a-cold --seed 1 --seconds 20 --trace 0

The simulator libraries (../src) and the benchmark driver are built in
Release mode under .bench_build/ at the repository root. The first run
builds everything; later runs rebuild only what changed. Build output
goes to standard error, so the last line of standard output is the
driver's JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("fig5a-cold", "cmp-cold", "figs-warm")
# One run must end within 180 s; the driver's own limit is the backstop.
RUN_TIMEOUT_S = 170


def _check(cmd):
    """Run a build step with its output on stderr; exit if it fails."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: '{' '.join(cmd)}' failed ({result.returncode})")


def build():
    """Configure (once) and build the driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found at "
                 f"{os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _check(cmd)
    _check(["cmake", "--build", BUILD_DIR, "-j",
            str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
