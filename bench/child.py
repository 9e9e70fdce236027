"""One pass of a workload, in a fresh process.

Usage: python3 bench/child.py WORKLOAD SEED TRACED SERIAL REFERENCE

TRACED, SERIAL and REFERENCE are 0 or 1.  SERIAL runs surveys at --jobs 1,
as every pass of a traced run does: pool workers cannot be traced
in-process, and the overhead is measured between like passes.

Imports hypercolor from the checkout's ``src/`` and builds the workload's
inputs (the set-up), then runs the workload's CLI calls in-process through
``hypercolor.cli.main`` with stdout captured (the timed part), then checks
every report.  A short fixed probe runs before the set-up and around every
call, so that the parent can tell the host's speed at that moment from the
program's.  Prints one JSON object describing the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")


def _call(main, argv: list) -> tuple:
    """(exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue()


def probe() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work
    (set, dict and sort operations, like the program's), median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sets = [frozenset(range(i % 37, i % 37 + 12)) for i in range(300)]
        shared = sum(len(sets[i] & sets[(i * 7) % 300]) for i in range(300))
        counts: dict = {}
        for i in range(6000):
            key = (i * 31 + shared) % 1013
            counts[key] = counts.get(key, 0) + i
        sorted((value % 97, key) for key, value in counts.items())
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _serial_argv(argv: list) -> list:
    if "--jobs" in argv:
        argv = list(argv)
        argv[argv.index("--jobs") + 1] = "1"
    return argv


def run_pass(workload: str, seed: int, traced: bool, serial: bool, reference: bool) -> dict:
    probe_before = probe()
    started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hypercolor
    import hypercolor.cli

    if not os.path.abspath(hypercolor.__file__).startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"hypercolor imported from {hypercolor.__file__}, not the checkout")
    ops = workloads.SETUP[workload](seed, os.path.join(WORK, "inputs", f"{workload}-{seed}"))
    ops_argv = [_serial_argv(op.argv) if serial else op.argv for op in ops]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    cli = hypercolor.cli

    timed = time.perf_counter()
    results, op_s, probe_s = [], [], [probe()]
    for index, argv in enumerate(ops_argv):
        if tracer is not None:
            tracer.instance = f"op{index}"
        start = time.perf_counter()
        results.append(_call(cli.main, argv))
        op_s.append(time.perf_counter() - start)
        probe_s.append(probe())
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    if tracer is not None:
        tracer.uninstall()
    attempted = failed = 0
    notes, digests, brackets, nodes = [], [], [], []
    for op, (code, stdout, err) in zip(ops, results):
        attempted += op.instances
        digests.append(hashlib.sha256(stdout.encode("utf-8")).hexdigest())
        if code is None:
            failed += op.instances
            notes.append(f"{' '.join(op.argv)} raised: {err.strip()}")
            continue
        outcome = checks.check(op, code, stdout)
        failed += outcome.failed
        notes += [f"{' '.join(op.argv)}: {note}" for note in outcome.notes]
        brackets += outcome.brackets
        if outcome.nodes is not None:
            nodes.append(outcome.nodes)
        if reference and op.reference is not None:
            attempted += op.instances
            ref_code, ref_out, _ = _call(cli.main, op.reference)
            if ref_code != code or ref_out != stdout:
                failed += op.instances
                notes.append(f"{' '.join(op.reference)} differs from {' '.join(op.argv)}")
    record = {
        "setup_s": timed - started,
        "setup_probe_s": (probe_before + probe_s[0]) / 2,
        "op_s": op_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": sum(op.instances for op in ops),
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "report_sha256": hashlib.sha256("".join(digests).encode("ascii")).hexdigest(),
        "bracket_width_sum": sum(hi - lo for lo, hi in brackets),
        "bracket_size_sum": sum(hi - lo + 1 for lo, hi in brackets),
        "report_nodes": sum(nodes) if nodes else None,
        "traced": traced,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        spans_dir = os.path.join(WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(spans_dir, f"{workload}.jsonl"))
    return record


if __name__ == "__main__":
    name, seed_text, *flags = sys.argv[1:6]
    traced, serial, reference = (flag == "1" for flag in flags)
    print(json.dumps(run_pass(name, int(seed_text), traced, serial, reference)))
