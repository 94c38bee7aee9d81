#!/usr/bin/env python3
"""Build and run the perfbench harness from the root of a checkout.

    python3 perfbench/run.py --workload sim-sft|fleet|campaign --seed N \
        --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the repository's libraries from src/ plus
the harness) in Release mode into $CARGO_TARGET_DIR, or .bench_build when it
is unset, then runs the harness with the given arguments.  Build output goes
to stderr, so the harness's JSON result stays the last line of stdout.  Exits
with the harness's code; a failed build exits 3 without printing a result.
Spans of a traced run land in <build dir>/out/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (cheap when nothing changed), then build; the build tool
    skips up-to-date targets."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        harness = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.run([harness, *sys.argv[1:], "--out-dir", out_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
