#!/usr/bin/env python3
"""Run every workload N times, each time with another seed, and print for each
end-to-end metric the median and the distance between the first and third
quartile as a share of the median, beside the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]... [--values]

Run it from the repository root. A spread above a third of its bound is
marked `wide`, one above the bound `TOO WIDE`; setup_s is shown but not
marked, since its spread is not held to the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

manifest = json.load(open("BENCHMARK.json"))
parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--workload", action="append")
parser.add_argument("--values", action="store_true", help="also print every run's value")
args = parser.parse_args()
workloads = args.workload or [w["name"] for w in manifest["workloads"]]

worst = 0.0
for workload in workloads:
    values = {m["name"]: [] for m in manifest["end_to_end"]}
    started = time.time()
    for run in range(args.runs):
        command = manifest["command"] + [
            "--workload", workload,
            "--seed", str(args.first_seed + run),
            "--seconds", str(manifest["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {args.first_seed + run}: run failed: {result}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    seconds = (time.time() - started) / args.runs
    print(f"{workload}: {args.runs} runs, {seconds:.1f} s each")
    for m in manifest["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q3 - q1) / median
        mark = ""
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
            mark = "TOO WIDE" if spread > m["bound"] else "wide" if spread > m["bound"] / 3 else ""
        print(f"  {m['name']:26} median {median:14.6g} {m['unit']:4} "
              f"spread {spread:7.4f}  bound {m['bound']:5.2f}  {mark}")
        if args.values:
            print("      " + " ".join(f"{x:.5g}" for x in v))
print(f"widest spread is {worst:.2f} of its bound")
