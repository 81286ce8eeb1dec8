#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Runs every workload (those BENCHMARK.json gates and the ungated
adaptive-sharded) through perfbench/run.py at --tiny size, untraced and
traced, and checks that:
  * each run exits 0 with a well-formed result line, correct outputs and
    no failed operation;
  * the result carries exactly the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json names, with its units, and every one
    is also printed once by name with that unit;
  * end-to-end values are positive;
  * the traced run's span self times sum to no more than its wall time;
  * on the serial-engine workloads the simulated results repeat exactly
    between an untraced and a traced run of the same seed.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 3
# adaptive-sharded is not in BENCHMARK.json (its timings are not steady
# enough on a shared host to be gated) but is tested here all the same.
ALL_WORKLOADS = ("paper-nvm-serial", "adaptive-sharded", "mcdram-mbind-tlb")
SERIAL_WORKLOADS = ("paper-nvm-serial", "mcdram-mbind-tlb")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    return done.returncode, done.stdout.splitlines()


def printed_metrics(lines, kind):
    """name -> [unit, ...] for the human-readable metric lines."""
    seen = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == kind:
            seen.setdefault(parts[1], []).append(parts[3])
    return seen


def check_metrics(tag, lines, kind, expected):
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          "%s: outputs correct, nothing failed" % tag)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected,
          "%s: result metrics and units match BENCHMARK.json" % tag)
    printed = printed_metrics(lines[:-1], kind)
    check(all(printed.get(name) == [unit] for name, unit in expected.items())
          and set(printed) == set(expected),
          "%s: every metric printed once with its unit" % tag)
    return result


def simulated_line(lines):
    return [line for line in lines if line.startswith("simulated")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

    gated = [w["name"] for w in bench["workloads"]]
    check(set(gated) <= set(ALL_WORKLOADS),
          "BENCHMARK.json names only known workloads")
    for workload in ALL_WORKLOADS:
        code, untraced = run(workload, 0)
        check(code == 0 and untraced, "%s untraced: exit 0" % workload)
        if code != 0 or not untraced:
            continue
        result = check_metrics(workload + " untraced", untraced, "end_to_end",
                               end_to_end)
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              "%s untraced: end-to-end values positive" % workload)

        code, traced = run(workload, 1)
        check(code == 0 and traced, "%s traced: exit 0" % workload)
        if code != 0 or not traced:
            continue
        check_metrics(workload + " traced", traced, "per_layer", per_layer)
        spans_path = os.path.join(ROOT, target, "perfbench",
                                  "spans-%s.json" % workload)
        with open(spans_path) as f:
            spans = json.load(f)
        self_sum = sum(spans["self_s"].values())
        check(spans["spans"] and self_sum <= spans["wall_s"],
              "%s traced: self times %.3f s <= wall %.3f s"
              % (workload, self_sum, spans["wall_s"]))
        if workload in SERIAL_WORKLOADS:
            check(simulated_line(untraced)
                  and simulated_line(untraced) == simulated_line(traced),
                  "%s: simulated results repeat across runs" % workload)

    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
