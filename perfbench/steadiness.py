#!/usr/bin/env python3
"""Steadiness check: two independent sets of benchmark runs of one build.

Usage, from anywhere in a checkout:

  python3 perfbench/steadiness.py [--out FILE]

For every workload in BENCHMARK.json it makes ten runs in set A (seeds 1-10)
and ten in set B (seeds 11-20), interleaving A and B and alternating which
goes first, each through run.py with --trace 0 for BENCHMARK.json's
run_seconds. Per set and end-to-end metric it reports the median, the
quartiles (Python's statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median. The sets agree on a metric when both spreads stay within
the metric's bound in BENCHMARK.json and neither median is worse than the
other by more than the bound. "steady" marks spreads below a third of the
bound.

The JSON document written to --out (default: stdout only) is the artifact a
performance change cites for the noise floor of its host. Exit status 0 when
every workload and metric agrees, 1 otherwise, 2 when a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # Runs per set; set A uses seeds 1..RUNS, set B RUNS+1..2*RUNS.


def one_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"steadiness: {workload} seed {seed} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0
    return (a - b) / a if better == "higher" else (b - a) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    doc = {"schema": "arinoc-perfbench-steadiness-v1",
           "host": {"platform": platform.platform(),
                    "cpus": os.cpu_count()},
           "run_seconds": seconds, "runs_per_set": RUNS,
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "workloads": {}}
    all_agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = 1 + i + (RUNS if s == "B" else 0)
                sets[s].append(one_run(workload, seed))
                print(f"{workload} set {s} seed {seed} done",
                      file=sys.stderr, flush=True)
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summarize([r[name] for r in sets["A"]])
            b = summarize([r[name] for r in sets["B"]])
            drift = max(worse_by(a["median"], b["median"], m["better"]),
                        worse_by(b["median"], a["median"], m["better"]))
            spread = max(a["spread"], b["spread"])
            agree = spread <= bound and drift <= bound
            all_agree = all_agree and agree
            rows[name] = {"unit": m["unit"], "bound": bound, "A": a, "B": b,
                          "drift": drift, "agree": agree,
                          "steady": spread < bound / 3,
                          "values": {s: [r[name] for r in sets[s]]
                                     for s in sets}}
        doc["workloads"][workload] = rows

        print(f"\n{workload}: {RUNS} runs per set, {seconds} s each")
        print(f"  {'metric':24s} {'median A':>12s} {'median B':>12s} "
              f"{'spread A':>9s} {'spread B':>9s} {'drift':>7s} "
              f"{'bound':>6s}  verdict")
        for name, r in rows.items():
            verdict = ("agree" if r["agree"] else "DISAGREE") + \
                      (", steady" if r["steady"] else "")
            print(f"  {name:24s} {r['A']['median']:>12.5g} "
                  f"{r['B']['median']:>12.5g} {r['A']['spread']:>9.4f} "
                  f"{r['B']['spread']:>9.4f} {r['drift']:>7.4f} "
                  f"{r['bound']:>6.2f}  {verdict}")
        sys.stdout.flush()

    doc["agree"] = all_agree
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    print(f"\nsets agree on every workload and metric: {all_agree}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
