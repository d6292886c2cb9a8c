#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver and runs one workload.

Usage, from anywhere in a checkout:

  python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>]
                           [--trace <0|1>]
  python3 perfbench/run.py --record-digests

The first form configures and builds perfbench/ (the arinoc library from
src/ plus the driver) under .bench_build/perfbench, runs the workload, checks
every simulated output, prints a human-readable table and, as the last line
of standard output, one JSON object (--seconds defaults to BENCHMARK.json's
run_seconds, --seed to 1, --trace to 0):

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exit status: 0 when every output is correct, 1 on a
correctness failure (the result line still printed), 2 on a usage, build or
driver error (no result line).

--record-digests re-runs every workload once at the default seed and
rewrites perfbench/digests.json. Use it only when a change is meant to alter
simulated results, and say so in that change.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DEADLINE_S = 170  # A run must end within 180 s once built.
# Paper Fig. 11: Ada-ARI over Ada-Baseline, geomean of 30 benchmarks.
PAPER_ARI_GAIN = 1.154


class BenchError(Exception):
    """A usage, build or driver failure: no result line is printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(2, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def drive(workload, seed, seconds, trace, deadline):
    """Runs the driver once; returns its raw JSON document."""
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Run lengths, caches and thread counts are the benchmark's, never the
    # caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARINOC_")}
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("driver exceeded the run deadline")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("driver printed no JSON document")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def check_digests(raw, errors):
    """Compares the run's cell digests with the recorded ones. Only the
    default seed has recorded digests. Returns the failed-simulation count."""
    if raw["seed"] != raw["default_seed"]:
        return 0
    recorded = load_json(DIGESTS)["cells"]
    failed = 0
    for key, cell in raw["digests"].items():
        want = recorded.get(key)
        if want != cell["digest"]:
            failed += cell["sims"]
            errors.append(f"{key}: digest {cell['digest']} != recorded "
                          f"{want or '(none)'}")
    return failed


def check_metrics(metrics, trace):
    """The driver must report exactly the metrics BENCHMARK.json declares."""
    spec = load_json(SPEC)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != declared:
        raise BenchError(f"reported metrics {sorted(got)} do not match "
                         f"BENCHMARK.json {sorted(declared)}")
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite")


def print_table(raw, attempted, failed, trace):
    info = raw["info"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  trace {trace}  "
          f"rounds {info['rounds']:.0f}  measured {info['measured_s']:.2f} s")
    for name, m in raw["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':30s} {failed / attempted:>16.6g} frac "
          f"({failed} of {attempted} simulations)")
    print(f"  step samples: {info['step_samples']:.0f}  set-up samples: "
          f"{info['setup_samples']:.0f}")
    if trace:
        print(f"  core.step_us_p999 is, per cell, the "
              f"{100 * info['step_tail_quantile']:.4g}th percentile "
              f"(at least 10 samples beyond it)")
        print("  noc.routers_awake_frac undercounts: the self-profiler records "
              "router wakes before the inject-NI phase wakes routers")
    elif "ari_ipc_gain" in raw["metrics"]:
        gain = raw["metrics"]["ari_ipc_gain"]["value"]
        cells = int(info["grid_cells"]) // 2
        print(f"  ari_ipc_gain {gain:.4f}x on {cells} benchmark(s) vs paper "
              f"Fig. 11 {PAPER_ARI_GAIN}x on 30: difference "
              f"{gain - PAPER_ARI_GAIN:+.4f} (subset; model unvalidated)")
    for e in raw["errors"]:
        print(f"  error: {e}")


def run(args):
    build()
    deadline = time.monotonic() + DEADLINE_S
    raw = drive(args.workload, args.seed, args.seconds, args.trace, deadline)
    errors = raw["errors"]
    failed = raw["failed"] + check_digests(raw, errors)
    attempted = max(1, raw["attempted"])
    correct = failed == 0 and not errors
    # A run with failed simulations may lack metrics; it is reported as a
    # correctness failure with whatever metrics it has, not as a driver error.
    if correct:
        check_metrics(raw["metrics"], args.trace)
    print_table(raw, attempted, failed, args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": raw["metrics"]}))
    return 0 if correct else 1


def record_digests():
    build()
    spec = load_json(SPEC)
    cells = {}
    for w in spec["workloads"]:
        raw = drive(w["name"], 1, 1, 0, time.monotonic() + DEADLINE_S)
        if raw["failed"] or raw["seed"] != raw["default_seed"]:
            raise BenchError(f"{w['name']}: cannot record: {raw['errors']}")
        for key, cell in raw["digests"].items():
            if cells.setdefault(key, cell["digest"]) != cell["digest"]:
                raise BenchError(f"{key}: workloads disagree on its digest")
    with open(DIGESTS, "w") as f:
        json.dump({"schema": "arinoc-perfbench-digests-v1",
                   "seed": 1,
                   "digest": "FNV-1a-64 of metrics_to_json without provenance",
                   "cells": dict(sorted(cells.items()))}, f, indent=2)
        f.write("\n")
    log(f"recorded {len(cells)} cell digests in {DIGESTS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_digests:
            return record_digests()
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_json(SPEC)["run_seconds"]
        if args.seed < 0 or args.seconds < 1:
            ap.error("--seed must be >= 0 and --seconds >= 1")
        return run(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
