"""The benchmark's own tests.  From the root of a checkout:

    python3 bench/selftest.py

Each pass runs in a fresh process, as in a benchmark run, so this takes
about twenty seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import checks
import run
import tracing
import workloads

SEED = 3


class CheckerTest(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, os.path.join(run.ROOT, "src"))
        from hypercolor import fano
        from hypercolor.cli import main

        h = fano()
        self.graph = (h.n, h.edges)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--family", "fano", "--budget", "1000", "--time-limit", "0"])
        self.assertEqual(code, 0)
        self.report = out.getvalue()

    def test_accepts_the_real_report(self):
        outcome = checks.check_verify_text(self.report, self.graph, {"q_exact": 7})
        self.assertEqual(outcome.notes, [])
        self.assertEqual(outcome.brackets, [(7, 7)])

    def test_flags_an_improper_coloring(self):
        # Every two Fano lines meet, so lines 0 and 6 cannot share color 1.
        colors = [1, 2, 3, 4, 5, 6, 1]
        self.assertTrue(checks.coloring_problems(7, self.graph[1], colors, 6))
        lines = [
            "witness: " + " ".join(map(str, colors)) if line.startswith("witness:") else line
            for line in self.report.splitlines()
        ]
        outcome = checks.check_verify_text("\n".join(lines) + "\n", self.graph, {})
        self.assertEqual(outcome.failed, 1)
        self.assertTrue(any("share vertex" in note for note in outcome.notes), outcome.notes)

    def test_flags_a_survey_violation(self):
        row = "[0] family=x n=7 m=7 k=3 delta2=6 q=8 bound=7 status=VIOLATED conditions=none"
        tail = "instances: 1\nholds: 0\nviolated: 1\nunresolved: 0\n"
        outcome = checks.check_survey(f"tool: t\nmaster-seed: 1\n{row}\n{tail}", 1)
        self.assertEqual(outcome.failed, 1)


class DeterminismTest(unittest.TestCase):
    """Two traced passes and one untraced pass of oracle-deep."""

    @classmethod
    def setUpClass(cls):
        cls.plain = run.run_pass("oracle-deep", SEED, traced=False, serial=True, reference=False)
        cls.traced = [
            run.run_pass("oracle-deep", SEED, traced=True, serial=True, reference=False)
            for _ in range(2)
        ]

    def test_counters_repeat_exactly(self):
        first, second = self.traced
        for name in ("oracle.nodes", "oracle.calls", "instances.sample_draws"):
            self.assertEqual(first["layers"][name], second["layers"][name], name)
        self.assertEqual(first["bracket_width_sum"], second["bracket_width_sum"])
        self.assertGreater(first["layers"]["oracle.nodes"], 0)

    def test_tracing_changes_no_report(self):
        for traced in self.traced:
            self.assertEqual(traced["report_sha256"], self.plain["report_sha256"])
            self.assertEqual(traced["bracket_width_sum"], self.plain["bracket_width_sum"])
            self.assertEqual(traced["layers"]["oracle.nodes"], self.plain["report_nodes"])
        self.assertEqual(self.plain["failed"], 0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            {name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()},
        )

    def test_exits_nonzero_without_the_program(self):
        bare = os.path.join(run.ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
