#!/usr/bin/env python3
"""Spread report: runs each workload of BENCHMARK.json several times, one
seed per run, and prints the median, quartiles and (Q3-Q1)/median of every
metric. End-to-end metrics whose spread exceeds FLAG (0.10) are flagged,
so a noisy metric is caught before anyone relies on it. Repeating one
seed (--seeds 42,42,42,42,42) measures the machine's drift alone.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seeds 1,2,3]
                                [--trace 0|1]

Exits non-zero when any run fails or any end-to-end metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys

FLAG = 0.10


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong outputs {result}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))

    flagged = []
    for workload in workloads:
        values = {}
        for seed in seeds:
            metrics = run_once(bench["command"], workload, seed,
                               bench["run_seconds"], args.trace)
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
        print(f"{workload} ({len(seeds)} runs)")
        print(f"  {'metric':28} {'unit':>6} {'median':>12} {'Q1':>12} "
              f"{'Q3':>12} {'spread':>7}")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if name in bounds and spread > FLAG:
                mark = "  <-- NOISY"
                flagged.append((workload, name, spread))
            print(f"  {name:28} {unit:>6} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f}{mark}")
    if flagged:
        print("flagged:", ", ".join(f"{w}/{n} {s:.3f}" for w, n, s in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
