"""The hypercolor benchmark: end-to-end and per-layer metrics per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or ``all``.  The run
repeats passes of the workload, each in a fresh process (bench/child.py),
until S seconds are used, and reports medians over the passes.  Times are
given at a reference speed of the host, measured by a fixed probe around
every call (see reference_wall); the raw times are printed too.  Every
report is checked; ``failed`` counts operations (CLI calls, or survey
instances) that raised or failed a check.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1,
passes alternate between untraced and traced, and the metrics are the
per-layer ones from the traced passes plus ``trace.overhead_frac``.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Exits 2 without a result when the checkout has no hypercolor source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bracket_size_sum": "count",
}
MIN_PASSES = 3
# Time of bench/child.py's probe on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11.7) when no neighbour slows it.  Times are reported as if every
# call had run at that speed; see reference_wall.
PROBE_REFERENCE_S = 0.002
# A run must end within 180 s even if the program gets much slower.
DEADLINE_S = 120
PASS_TIMEOUT_S = 150


class PassError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("HYPERCOLOR_MAX_NODES", "HYPERCOLOR_TIME_LIMIT"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, traced: bool, serial: bool, reference: bool) -> dict:
    """Run one pass in a fresh process and return its record."""
    flags = [str(int(flag)) for flag in (traced, serial, reference)]
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), *flags]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes until the next one would overrun the time: at least
    MIN_PASSES, or with tracing at least two untraced-traced pairs.

    Only the first pass runs the reference calls, and not when tracing:
    a traced run makes every survey serial.
    """
    minimum = 4 if trace else MIN_PASSES
    passes = []
    begin = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            start = time.perf_counter()
            record = run_pass(workload, seed, traced, serial=trace, reference=not passes and not trace)
            record["process_s"] = time.perf_counter() - start
            passes.append(record)
            elapsed = time.perf_counter() - begin
            longest = max(p["process_s"] for p in passes)
            paired = not trace or len(passes) % 2 == 0
            if paired and elapsed + longest > (seconds if len(passes) >= minimum else DEADLINE_S):
                return passes
    finally:
        shutil.rmtree(os.path.join(ROOT, ".bench_work", "inputs", f"{workload}-{seed}"), ignore_errors=True)


def _per_call_ratios(record: dict) -> list:
    """Each call's time over the mean of the probes just before and after it."""
    probes = record["probe_s"]
    return [t / ((probes[i] + probes[i + 1]) / 2) for i, t in enumerate(record["op_s"])]


def reference_wall(passes: list) -> float:
    """Wall time of the timed part, in seconds at the probe's reference speed.

    Each call is timed and divided by the time of the fixed probe around it,
    the median of that ratio over the passes is taken per call, and the
    sum is scaled by PROBE_REFERENCE_S.  On a shared host the speed of the
    CPU swings by half for a minute at a time; raw times over a 20 s run
    then spread by 15-35% between runs, the ratios by a few percent.
    """
    ratios = [_per_call_ratios(p) for p in passes]
    return PROBE_REFERENCE_S * sum(statistics.median(r) for r in zip(*ratios))


def reference_setup(passes: list) -> float:
    """Median set-up time over the passes, at the probe's reference speed."""
    return PROBE_REFERENCE_S * statistics.median(p["setup_s"] / p["setup_probe_s"] for p in passes)


def summarize(workload: str, passes: list, trace: bool) -> dict:
    """The result object for one workload's passes."""
    plain = [p for p in passes if not p["traced"]]
    notes = [note for p in passes for note in p["notes"]]
    correct = all(p["failed"] == 0 for p in passes)
    for key in ("report_sha256", "bracket_size_sum", "report_nodes"):
        if len({p[key] for p in passes}) != 1:
            correct = False
            notes.append(f"{key} differs between passes")
    wall = reference_wall(plain)
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        first = traced[0]["layers"]
        for p in traced[1:]:
            for name in ("oracle.nodes", "oracle.calls", "instances.sample_draws"):
                if p["layers"][name] != first[name]:
                    correct = False
                    notes.append(f"{name} differs between traced passes")
        nodes = passes[0]["report_nodes"]
        if nodes is not None and nodes != first["oracle.nodes"]:
            correct = False
            notes.append("traced oracle.nodes differs from the nodes the reports state")
        layers["trace.overhead_frac"] = reference_wall(traced) / wall - 1.0
        metrics = {name: (value, tracing.LAYER_METRICS[name][0]) for name, value in layers.items()}
    else:
        values = {
            "setup_s": reference_setup(passes),
            "wall_s": wall,
            "ops_per_s": passes[0]["ops"] / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "bracket_size_sum": passes[0]["bracket_size_sum"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload,
        "passes": len(passes),
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": metrics,
        "extra": {
            "raw_setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
            "raw_wall_s": (sum(statistics.median(t) for t in zip(*(p["op_s"] for p in plain))), "s"),
            "failed_frac": (failed / attempted, "frac"),
            "bracket_width_sum": (passes[0]["bracket_width_sum"], "count"),
            "report_sha256": (passes[0]["report_sha256"], "sha256"),
        },
    }


def _print_human(result: dict, seed: int, trace: bool) -> None:
    print(f"workload: {result['workload']}  seed: {seed}  passes: {result['passes']}  trace: {int(trace)}")
    for section in ("metrics", "extra"):
        for name, (value, unit) in result[section].items():
            if result["workload"].startswith("survey") and name == "ops_per_s":
                alias = "jobs2_instances_per_s" if result["workload"] == "survey-jobs2" else "instances_per_s"
                print(f"  {alias}: {value:.6g} {unit}")
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name}: {shown} {unit}")
    for note in result["notes"][:10]:
        print(f"  problem: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypercolor", "__init__.py")):
        print(f"error: no hypercolor source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            passes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except PassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = summarize(name, passes, bool(args.trace))
        _print_human(result, args.seed, bool(args.trace))
        results.append(result)
    if len(results) == 1:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in results[0]["metrics"].items()
        }
    else:
        metrics = {
            f"{r['workload']}/{name}": {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
