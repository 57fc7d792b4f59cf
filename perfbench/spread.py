"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs the benchmark ``--runs`` times per workload, seeds ``--first-seed``
upwards, and prints every end-to-end metric of every workload: the
median, the quartile spread (Q3 - Q1 over the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound and a
third of it, and the error rate over all runs.  A benchmark is steady when
every spread but ``setup_s``'s stays under its bound; aim for a third of
it.  ``--runs 2 --first-seed 0`` checks the default seed and one other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="default: every workload of BENCHMARK.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: row check failed", flush=True)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            median = statistics.median(series)
            spread = 0.0
            if len(series) > 1:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
            ok = spread <= bounds[name] or name == "setup_s"
            steady &= ok
            print(f"{workload:18s} {name:14s} median {median:10.5g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:5.3f}  "
                  f"third {bounds[name] / 3:6.4f}  {'ok' if ok else 'WIDE'}  "
                  f"{[round(v, 4) for v in series]}", flush=True)
        print(f"{workload:18s} error_rate     {failed / attempted:.6g} "
              f"({failed} of {attempted} points)", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
