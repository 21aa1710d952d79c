#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs the benchmark untraced once per seed for each workload (all workloads in
BENCHMARK.json by default) and prints, per metric, the median and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound. Run it from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config, workload, seed):
    cmd = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(config, workload, seed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}:")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:20s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{x:.6g}" for x in vals))
        sys.stdout.flush()
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
