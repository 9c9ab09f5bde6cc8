#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-steady --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles
astrea_core from ../src) into .bench_build/perfbench; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no astrea sources next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited "
                  f"{done.returncode}", file=sys.stderr)
            return False
    return True


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    if not build():
        return 3
    if args.self_test:
        return run([os.path.join(BUILD_DIR, "perfbench_test")])
    return run([os.path.join(BUILD_DIR, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")])


if __name__ == "__main__":
    sys.exit(main())
