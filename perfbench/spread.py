#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median, next to
the bound BENCHMARK.json gives the metric.

    python3 perfbench/spread.py --workload suite-bisect --seeds 11-20
    python3 perfbench/spread.py --all --seeds 11-20 --json out.json

Run from the repository root. Each run is one process, run in sequence.
"""

import argparse
import json
import statistics
import subprocess
import sys

def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--json", help="also write every run's result line here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    worst = 0.0
    for w in workloads:
        runs = [run_once(bench["command"], w, s, bench["run_seconds"], 0) for s in args.seeds]
        record[w] = runs
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        print(f"{w}: {len(runs)} runs, {len(bad)} incorrect")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread < bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:14s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
