#!/usr/bin/env python3
"""Builds the SMN replay benchmark from source and runs one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large_wan --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
spill files and span traces go to .../perfbench-out. Build output is sent to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, "perfbench")
    out = os.path.join(root, "perfbench-out")
    try:
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build, "-j", "3"], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench build failed: {err}", file=sys.stderr)
        return 1
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:], "--out", out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
