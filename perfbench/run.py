#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <churn-fleet|vpc-traffic|evacuation> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the measuring binary from source on
first use (CMake, optimized, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs one workload in one process and passes
its output through. The last stdout line is the result JSON object; the
exit status is non-zero when the build fails, a correctness check fails
or the run overruns its time limit.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # Concurrent runs in one checkout share one build.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
                      "--target", "wavnet_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
                return None
    return os.path.join(build_dir, "wavnet_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "perfbench"))
    if binary is None:
        return 2
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
