"""Steadiness check: repeat each workload on several seeds, print the spread.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b] [--first-seed 1]

Runs ``run.py`` once per seed (``--first-seed`` .. ``+runs-1``), one
workload after the other, and prints for each end-to-end metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
The bounds in ``BENCHMARK.json`` are set from this output; each spread
should stay below a third of its metric's bound.
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


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in a fresh process; returns its result object."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return result


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else float("inf"))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if reported != units:
                raise SystemExit(f"{workload}: metrics {reported} differ from BENCHMARK.json {units}")
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: all correct={all(r['correct'] for r in results)} "
              f"failed shares={sorted(shares)}")
        for metric, bound in bounds.items():
            median, q1, q3, share = spread([r["metrics"][metric]["value"] for r in results])
            flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "OVER BOUND")
            print(f"  {metric:16s} median={median:12.6g} q1={q1:12.6g} q3={q3:12.6g} "
                  f"spread={share:6.3f} bound={bound} {flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
