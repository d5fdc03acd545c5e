#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-q80 --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which builds the hmxp
library from the repository's own CMakeLists.txt) in Release mode under
the directory named by CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally. It then runs the perfbench binary, whose
last line of standard output is the result JSON. With --trace 1 the
Chrome trace-event file of the traced phase is written next to the
build as trace-<workload>.json. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-q80", "fine-q16", "fine-q16-process", "service-mix")
# The binary itself has 180 s; leave room for this wrapper to report.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file",
                    os.path.join(out, f"trace-{args.workload}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
