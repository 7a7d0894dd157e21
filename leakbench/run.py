#!/usr/bin/env python3
"""Builds and runs the leakbench benchmark.

Run from the repository root:

    python3 leakbench/run.py --workload chip_random --seed 1 --seconds 15 --trace 0

The first call configures and builds nanoleak plus the benchmark program in
Release under .bench_build/leakbench (about a minute); later calls only
check that the build is up to date. All other arguments go to the program
(see leakbench/README.md), whose last line of standard output is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "leakbench")
BINARY = os.path.join(BUILD_DIR, "leakbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Concurrent runs in one checkout build once; the others wait here.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            return run_steps(log, log_path)


def run_steps(log, log_path):
    """Runs the configure (first time only) and build steps into `log`."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            code = subprocess.run(step, stdout=log, stderr=log,
                                  timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            log.write(f"\n{err}\n")
            code = -1
        if code != 0:
            log.flush()
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            sys.stderr.write(f"leakbench: build step failed: "
                             f"{' '.join(step)}\n")
            return False
    return True


def main():
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"leakbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
