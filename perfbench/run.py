#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench.cpp from the checkout's
sources (two CMake builds under .bench_build/perfbench: stats compiled
out for end-to-end numbers, stats compiled in for the traced run), runs
it, checks its outputs, and prints as the last stdout line one JSON
object with exactly the keys correct, attempted, failed and metrics.

--trace 0  end-to-end metrics of one workload (stats-off build): three
           perfbench processes of --seconds/3 each on the same inputs, and
           for every metric the median of the three. One process that
           a host hiccup hit (an epoch stall that grows the pool, say)
           then moves no metric.
--trace 1  per-layer metrics: the untraced layer ladder (stats-off
           build) plus the traced base rungs (stats-on build), and
           trace.overhead_frac for the named workload. Spans are written
           to .bench_build/perfbench/traces/.

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("list-contended", "serve-zipf", "hash-large", "chunk-scan")
BENCH_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800
E2E_PROCESSES = 3


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build(stats_on):
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(BUILD_ROOT, "stats-on" if stats_on else "stats-off")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DVBL_STATS=" + ("ON" if stats_on else "OFF")])
        steps.append(["cmake", "--build", build_dir, "-j4",
                      "--target", "perfbench"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err))
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def run_bench(binary, args, label=""):
    """Runs perfbench; echoes its report lines and returns its JSON."""
    # One malloc arena: otherwise how many arenas the four clients
    # happen to create moves peak RSS by megabytes from run to run. The
    # lists allocate nodes from NodePool slabs, so this touches only the
    # benchmark's buffers, slab refills and the service's small vectors.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out: %s" % " ".join(args))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with %d: %s" % (done.returncode, " ".join(args)))
    for line in lines[:-1]:
        print(label + line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the files perfbench is built from (src/, perfbench/),
    so a result names its code even where the checkout is not a git
    repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def host_context(seed, bench_context):
    try:
        with open("/sys/devices/system/clocksource/clocksource0/"
                  "current_clocksource") as f:
            clocksource = f.read().strip()
    except OSError:
        clocksource = "unknown"
    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "clocksource": clocksource,
        "pmu": bench_context.get("pmu"),
        "vbl_stats_compiled": bench_context.get("stats_compiled"),
        "compiler": bench_context.get("compiler"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
    return context


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")
    if args.seed < 0:
        fail("--seed must be non-negative")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace == 0:
        off = build(False)
        runs = [run_bench(off, ["--mode", "e2e", "--seconds",
                                 str(args.seconds / E2E_PROCESSES)] + common,
                           "[process %d] " % (i + 1))
                for i in range(E2E_PROCESSES)]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = sorted(r["metrics"][name]["value"] for r in runs)
            metrics[name] = {"value": values[len(values) // 2],
                             "unit": first["unit"]}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        context = runs[0]["context"]
    else:
        off, on = build(False), build(True)
        ladder = run_bench(off, ["--mode", "ladder", "--seconds",
                                  str(0.65 * args.seconds)] + common)
        spans_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, "%s-seed%d.jsonl"
                             % (args.workload, args.seed))
        traced = run_bench(on, ["--mode", "trace", "--seconds",
                                 str(0.35 * args.seconds), "--spans", spans]
                            + common)
        metrics = dict(ladder["metrics"])
        metrics.update(traced["metrics"])
        untraced = metrics.pop("untraced_mops")["value"]
        traced_mops = metrics.pop("traced_mops")["value"]
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - traced_mops / untraced if untraced else 0.0,
            "unit": "frac"}
        print("trace overhead on %s: traced %.3f vs untraced %.3f Mops/s"
              % (args.workload, traced_mops, untraced))
        attempted = ladder["attempted"] + traced["attempted"]
        failed = ladder["failed"] + traced["failed"]
        correct = ladder["correct"] and traced["correct"]
        context = dict(traced["context"])
        context["stats_compiled"] = "off: %s, on: %s" % (
            ladder["context"]["stats_compiled"],
            traced["context"]["stats_compiled"])

    names = expected_metrics(args.trace == 1)
    if names is not None:
        missing = [n for n in names if n not in metrics]
        if missing:
            print("check: metrics missing from the output: " + ", ".join(missing))
            correct = False
        metrics = {n: metrics[n] for n in names if n in metrics}
    print("host: " + json.dumps(host_context(args.seed, context), sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
