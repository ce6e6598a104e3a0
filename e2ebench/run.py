#!/usr/bin/env python3
"""Build and run the InfoGram end-to-end benchmark.

    python3 e2ebench/run.py --workload lookup_hot --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
InfoGram libraries plus the harness (e2ebench/CMakeLists.txt) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only what
changed. Build output goes to stderr. The harness prints its report and, as
the last stdout line, one JSON object with correct/attempted/failed/metrics;
this script passes it through and exits with the harness's exit code.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lookup_hot", "query_mix", "job_turnaround")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the harness; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "infogram_e2e", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"build step failed: {exc}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed ({done.returncode}): {' '.join(cmd)}", file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "infogram_e2e")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
