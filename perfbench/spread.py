#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each run with another
seed, and prints every end-to-end metric's median and spread: the distance
between its first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread should stay under a third of the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads hd_2cam,duty_1000]
        [--first-seed 1] [--trace 0] [--out results.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            took = time.time() - t
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {out.returncode}:\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: NOT CORRECT ({res['failed']} of {res['attempted']} failed)")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{w} seed {seed}: {took:.1f} s", flush=True)
        results[w] = runs
        print(f"\n{w}: {args.runs} runs")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else f"  WIDE (bound {bound})")
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}{flag}")
        print(flush=True)
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
