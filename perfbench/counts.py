"""Deterministic work counts: same seed twice must agree; a held-out seed runs.

    python3 perfbench/counts.py [--seed 1] [--held-out 7919] [--workloads a,b]

For each workload, makes two traced runs on ``--seed`` and one on the
held-out seed (one traced round each) and prints every count the traced
run reports: engine events, ``schedule`` calls, packing calls and items,
placements, requests and accepted jobs.  Exits 1 if a count differs
between the two runs on one seed.  On serve-closed-loop every count
repeats too: the client's requests and the service's engine steps
interleave in one event loop in the same order on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from steady import ROOT, run_once


def counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "items")
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", type=int, default=7919)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    status = 0
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, 1, trace=1)
                   for seed in (args.seed, args.seed, args.held_out)]
        reported = {name: metric["unit"] for name, metric in results[0]["metrics"].items()}
        if reported != units:
            raise SystemExit(f"{workload}: metrics {reported} differ from BENCHMARK.json {units}")
        first, second, held = (counts(result) for result in results)
        print(f"{workload}: seed {args.seed} twice, held-out seed {args.held_out}")
        for name in first:
            same = first[name] == second[name]
            verdict = "repeats" if same else "DIFFERS"
            if not same:
                status = 1
            print(f"  {name:55s} {first[name]:12.6g} {second[name]:12.6g} "
                  f"held-out {held[name]:12.6g}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
