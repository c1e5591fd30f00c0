#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rider_wpo --seed 1 --seconds 10 --trace 0

The OCaml benchmark (perfbench.ml) is built with dune into .bench_build/,
then run with the same arguments.  Its standard output is passed through:
the last line is the result object.  Build output goes to standard error.
Reports and traces are written under perfbench/out/.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache=disabled", "--display=quiet", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        done = subprocess.run([EXE, *argv, "--out", OUT_DIR], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
