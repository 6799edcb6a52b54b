#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the benchmark's
acceptance rule measures it.

    python3 perfbench/spread.py --workloads fabric_sync,dimensioning --seeds 10

For each workload it runs perfbench/run.py once per seed (seeds 1..N) and
prints, per end-to-end metric, the median and the spread: (third quartile -
first quartile) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them. A spread above a third of the
metric's bound in BENCHMARK.json is flagged, setup_s included; the benchmark
is meant to stay below that. --json writes every value for later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--json", help="write all values to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    values = {}
    steady = True
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, proc.returncode))
                steady = False
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            vals = values[workload][name]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print("%-18s %-12s median %-14.6g spread %6.2f%%  (bound %g)%s"
                  % (workload, name, q2, 100 * spread, bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
