#!/usr/bin/env python3
"""Runs one workload of the privbasis benchmark and prints its result.

    python3 perfbench/run.py --workload kosarak-k300 --seed 1 \
        --seconds 25 --trace 0

Builds the library, the query server and the benchmark driver from the
checkout's sources (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs perfbench_driver. Prints a
PERFBENCH_DETAIL line (every measured metric with its sample count, the
run's facts, and the host stamp), then, as the last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1). Exits non-zero without a result when the build or
the run fails. Workloads and metrics: perfbench/README.md.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kosarak-k300", "pumsb-k200", "aol-k100", "served-mushroom")
DRIVER_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the two binaries the run needs (a no-op
    after the first run in a checkout)."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target",
              "perfbench_driver", "privbasis_server", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def host_stamp(build_dir):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "build_dir": os.path.relpath(build_dir, ROOT),
    }


def benchmark_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 1
    driver = os.path.join(build_dir, "perfbench_driver")
    server = os.path.join(build_dir, "privbasis", "privbasis_server")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--server-bin", server]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_REPORT "):
            report = json.loads(line.split(" ", 1)[1])
    if done.returncode != 0 or report is None:
        log("driver failed (exit %d)" % done.returncode)
        return 1

    report["stamp"]["host"] = host_stamp(build_dir)
    print("PERFBENCH_DETAIL " + json.dumps(report, sort_keys=True))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name in benchmark_metrics(section):
        measured = report["metrics"].get(name)
        if measured is None:
            log("metric %s was not measured" % name)
            return 1
        metrics[name] = {"value": measured["value"],
                         "unit": measured["unit"]}
    if not report["correct"]:
        log("output checks failed: %s" % report["errors"])
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
