#!/usr/bin/env python3
"""Self-check of the benchmark: runs every workload plain and traced, and
fails if a run does not finish, fails an output check, or leaves any
metric named in BENCHMARK.json without its value, unit or sample count.

    python3 perfbench/selfcheck.py [--seconds 2] [--seed 7]

Traced runs last --seconds. Plain runs last BENCHMARK.json's run_seconds:
a shorter window gathers too few samples beyond the tail percentile, which
fails a check. The whole check takes about four minutes.

Exits 0 when every run passes; prints one line per run either way.
"""
import argparse
import json
import numbers
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
STAMP_KEYS = {"workload", "seed", "compiler", "build_type", "simd",
              "privbasis_threads", "client_model", "fsync", "host"}


def check_run(bench, workload, trace, seed, seconds):
    """Returns a list of problems with one run (empty = it passed)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return ["exit %d: %s" % (done.returncode, done.stderr[-2000:])]
    problems = []
    result = json.loads(lines[-1])
    detail = None
    for line in lines:
        if line.startswith("PERFBENCH_DETAIL "):
            detail = json.loads(line.split(" ", 1)[1])
    if detail is None:
        return ["no PERFBENCH_DETAIL line"]
    if set(result) != RESULT_KEYS:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("output checks failed: %s" % detail.get("errors"))
    if not (isinstance(result.get("attempted"), int) and
            result["attempted"] >= 1):
        problems.append("attempted %r" % result.get("attempted"))
    missing_stamp = STAMP_KEYS - set(detail.get("stamp", {}))
    if missing_stamp:
        problems.append("stamp lacks %s" % sorted(missing_stamp))

    section = "per_layer" if trace else "end_to_end"
    for spec in bench[section]:
        name = spec["name"]
        got = result["metrics"].get(name, {})
        measured = detail["metrics"].get(name, {})
        if not isinstance(got.get("value"), numbers.Number):
            problems.append("%s: no value" % name)
        if got.get("unit") != spec["unit"]:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, got.get("unit"), spec["unit"]))
        samples = measured.get("samples")
        if not isinstance(samples, int) or samples < 0:
            problems.append("%s: no sample count" % name)
        elif section == "end_to_end" and samples < 1:
            problems.append("%s: measured from no samples" % name)
    if trace == 0 and "query_tail_percentile" not in detail["facts"]:
        problems.append("query_tail_ms without its percentile")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            seconds = args.seconds if trace else bench["run_seconds"]
            problems = check_run(bench, workload, trace, args.seed, seconds)
            print("%-16s trace=%d  %s" % (workload, trace,
                                          "; ".join(problems) or "ok"),
                  flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
