#!/usr/bin/env python3
"""Runs BENCHMARK.json's command N times per workload, each with another seed,
and prints every end-to-end metric's spread: the distance between the first
and third quartile of its N values (statistics.quantiles(values, n=4)) as a
share of their median, next to the metric's bound.

    python3 ledger/spread.py [--runs 10] [--first-seed 100] [--workload W ...] [--out FILE]

Run from the repository root.  --out appends every run's full result to FILE
(one JSON line each), the input of `ledger diff`.  Exits non-zero if a spread exceeds its bound
or a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values = {name: [] for name in bounds}
        for run in range(args.runs):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + run),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {args.first_seed + run}: exit {done.returncode}\n{done.stderr}")
                bad = True
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, bad = "  EXCEEDS BOUND", True
            elif spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"{workload:<18} {name:<12} median {median:>12.4f}  spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
    sys.exit(1 if bad else 0)

if __name__ == "__main__":
    main()
