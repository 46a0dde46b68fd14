#!/usr/bin/env python3
"""Build and run the epoch-pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady-serve --seed 1 --seconds 50 --trace 0

The library in src/ and the benchmark in perfbench/ are configured as one
CMake project under .bench_build/perfbench (Release) and built before the
run; a tree that is already built only pays for CMake's up-to-date check.
The benchmark binary prints a human-readable report and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "epoch_bench")


def build(targets):
    """Configure (once) and build; returns False when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def self_test():
    if not build(["epoch_bench", "perfbench_tests"]):
        return 1
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")]).returncode
    names = subprocess.run([sys.executable, os.path.join(HERE, "tests", "test_metric_names.py"),
                            BINARY]).returncode
    return code or names


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["epoch_bench"]):
        return 2

    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--reference", os.path.join(HERE, "reference.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD_ROOT, "trace",
                                            "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
