#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

    python3 perfbench/steadiness.py [--passes 2]

Runs perfbench/run.py once per workload of BENCHMARK.json and seed 1..10,
with the run length of BENCHMARK.json, then prints for each end-to-end
metric the median and the quartile spread of its values, as a share of the
median. A metric, setup_s included, is steady when its spread stays below a
third of its bound. With --passes 2 every seed is run twice and the second
pass's median must not be worse than the first's by more than the bound.
Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def quartile_spread(values):
    """Distance between the first and third quartiles as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return float("inf") if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, choices=[1, 2], default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        passes = []
        for _ in range(args.passes):
            runs = []
            for seed in SEEDS:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: {runs[-1]}", flush=True)
            passes.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for p, runs in enumerate(passes):
                values = [run[name] for run in runs]
                spread = quartile_spread(values)
                medians.append(statistics.median(values))
                steady = spread < bound / 3
                ok = ok and steady
                print(f"{workload:13s} {name:15s} pass {p + 1}: median "
                      f"{medians[-1]:.6g} spread {spread:.4f} (bound "
                      f"{bound}) {'ok' if steady else 'NOT STEADY'}")
            if len(medians) == 2:
                drift = worsening(medians[0], medians[1], metric["better"])
                agree = drift <= bound
                ok = ok and agree
                print(f"{workload:13s} {name:15s} second median worse by "
                      f"{drift:+.4f} {'ok' if agree else 'DRIFTED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
