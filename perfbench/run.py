#!/usr/bin/env python3
"""Build and run the wire-to-store benchmark (perfbench/README.md).

From the repository root:

    python3 perfbench/run.py --workload tc_churn --seed 1 --seconds 8 --trace 0

The driver is compiled from the checkout's sources with CMake into the
directory named by $CARGO_TARGET_DIR (default .bench_build), then run with
the same arguments.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero without a result
when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run takes well under a minute (README.md); this only ends a wedged one.
RUN_TIMEOUT_S = 170


def build(build_dir):
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "wirebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.cpp")):
        print("perfbench: no library sources under src/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [os.path.join(build_dir, "wirebench")] + sys.argv[1:],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
