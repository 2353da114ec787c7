#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--seconds <s>] [--save <file>] [--against <file>] [workload ...]

Runs `perfbench/run.py` once per seed for each workload (every workload
in BENCHMARK.json by default), then prints, for every end-to-end metric,
the median of the runs and the distance between their first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread at or above a third of its bound is flagged
with `!`.

`--save` writes every run's values to a JSON file. `--against` reads
such a file from an earlier set and prints how far each median moved
from it, in the metric's worse direction; a move beyond the bound is
flagged with `!`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    saved = {}
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        saved[workload] = values
        print(f"{workload} ({args.runs} runs)")
        for name, vs in values.items():
            bound = metrics[name]["bound"]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "!" if spread >= bound / 3 else " "
            line = f"  {flag} {name:<20} median {med:14.4f}  spread {spread:7.4f}  bound {bound}"
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (med - before) / before if before else 0.0
                worse = -change if metrics[name]["better"] == "higher" else change
                line += f"  worse by {worse:+.4f}{' !' if worse > bound else ''}"
            print(line)
            print(f"      values {[float(f'{v:.6g}') for v in vs]}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)


if __name__ == "__main__":
    main()
