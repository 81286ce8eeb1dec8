#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-nvm-serial --seed 1 \
        --seconds 45 --trace 0

The benchmark program (perfbench/atmem_perfbench, built with CMake from
perfbench/ and the library sources in src/) prints provenance, the output
checks and every metric by name and unit; its last line, which this
script prints last, is the result object {"correct", "attempted",
"failed", "metrics"}.
Build files go under $CARGO_TARGET_DIR (default .bench_build) in the
repository root, and so do the telemetry files a run writes and the span
dump of a traced run (spans-<workload>.json). The exit code is 0 only
when the build and the run succeeded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-nvm-serial", "adaptive-sharded", "mcdram-mbind-tlb")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures and builds atmem_perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as err:
            log("cannot run %s: %s" % (cmd[0], err))
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out_dir, "atmem_perfbench")
    return binary if os.access(binary, os.X_OK) else None


def check_result(line):
    """The result line: exactly the four keys, counts as whole numbers."""
    result = json.loads(line)
    if not isinstance(result, dict):
        raise ValueError("not a JSON object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric %s is malformed" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: tiny graphs and few epochs")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    scratch = os.path.join(out_dir, "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch,
           "--spans-out", os.path.join(out_dir,
                                       "spans-%s.json" % args.workload)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        log("atmem_perfbench exited with code %d" % done.returncode)
        return 1
    try:
        check_result(lines[-1])
    except ValueError as err:
        log("malformed result line: %s" % err)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
