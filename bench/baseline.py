"""Measure the benchmark's spread over seeds and record a baseline.

Usage, from the root of a checkout:

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace-seed N] [--out FILE]

Runs bench/run.py once per workload and seed, for BENCHMARK.json's
run_seconds, and reports for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  A spread above a third
of the metric's bound is flagged.  With --trace-seed, one traced run per
workload adds the per-layer medians.  With --out, writes the result as
JSON together with the node budgets and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} reported incorrect output")
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    end_to_end, per_layer = {}, {}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        end_to_end[workload] = {}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            end_to_end[workload][name] = stats
            flag = "  ABOVE bound/3" if stats["spread"] > bound / 3 and name != "setup_s" else ""
            print(f"{workload:16} {name:17} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag} "
                  f"values {' '.join(f'{v:.4g}' for v in stats['values'])}", flush=True)
        if args.trace_seed is not None:
            traced = _run(workload, args.trace_seed, seconds, 1)
            per_layer[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        doc = {
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
            "run_seconds": seconds,
            "seeds": seeds,
            "trace_seed": args.trace_seed,
            "node_budgets": workloads.budgets(),
            "layer_map": {name: moves for name, (_, _, moves) in tracing.LAYER_METRICS.items()},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
