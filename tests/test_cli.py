"""Command line behavior: inputs, subcommands, exit codes, parallel surveys."""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from hypercolor import (
    Budget,
    CriticalCore,
    FamilySpec,
    GenerationError,
    Hypergraph,
    InequalityReport,
    chromatic_index,
    criticality_report,
    digest,
    fano,
    generate,
    greedy_clique,
    inequality_suite,
    line_graph,
    parse_family,
    random_linear,
    serialize_hgr,
    survey_instance,
    verify_conjecture,
)
from hypercolor import analysis, cli, coloring, core, oracle, transforms
from hypercolor.cli import main
from hypercolor.report import (
    TOOL_VERSION,
    render_criticality,
    render_stats,
)
from hypercolor.transforms import SimpleGraph

from brute import counting_builds, counting_searches

LOOPS = "p hgr 1 2\ne 1\ne 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_from_family(capsys):
    code, out, err = run_cli(capsys, "stats", "--family", "fano")
    assert code == 0
    assert out == render_stats(fano())
    assert err == ""


def test_stats_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fano.hgr"
    path.write_text(serialize_hgr(fano()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "stats", str(path))
    assert code == 0
    assert out == render_stats(fano())

    stdin = io.TextIOWrapper(io.BytesIO(serialize_hgr(fano()).encode("utf-8")))
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, "stats", "-")
    assert code == 0
    assert out == render_stats(fano())


def test_input_source_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "stats")
    assert code == 2
    assert "no input" in err

    path = tmp_path / "x.hgr"
    path.write_text(serialize_hgr(fano()), encoding="utf-8")
    code, _, err = run_cli(capsys, "stats", str(path), "--family", "fano")
    assert code == 2
    assert "not both" in err

    code, _, err = run_cli(capsys, "stats", str(tmp_path / "missing.hgr"))
    assert code == 2

    bad = tmp_path / "bad.hgr"
    bad.write_text("p hgr 3 1\ne 9\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "stats", str(bad))
    assert code == 2
    assert "line 2" in err

    code, _, err = run_cli(capsys, "stats", "--family", "tesseract:4")
    assert code == 2
    assert "unknown family" in err


def test_input_that_is_not_utf8_is_bad_input(capsys, tmp_path, monkeypatch):
    binary = tmp_path / "binary.hgr"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "stats", str(binary))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "UTF-8" in err

    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "stats", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "UTF-8" in err


def test_stdin_that_is_not_utf8_is_bad_input_under_the_c_locale():
    # The C locale reads stdin text with surrogateescape; the bytes must
    # still be decoded strictly, as they are from a file.
    proc = subprocess.run(
        [sys.executable, "-m", "hypercolor", "stats", "-"],
        input=b"p hgr 2 1\nc \xff\ne 1 2\n",
        capture_output=True,
        env={**os.environ, "LC_ALL": "C"},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: input is not UTF-8")


def test_internal_errors_are_not_reported_as_bad_input(capsys, monkeypatch):
    def broken(colors):
        raise ValueError("palette invariant broken")

    monkeypatch.setattr(coloring, "_check_palette", broken)
    with pytest.raises(ValueError, match="palette invariant broken"):
        main(["color", "--family", "fano"])
    assert "error:" not in capsys.readouterr().err
    monkeypatch.undo()

    # Run as a program, the failure ends in a traceback and exit code 1.
    script = (
        "import sys\n"
        "from hypercolor import coloring\n"
        "from hypercolor.cli import main\n"
        "def broken(colors):\n"
        "    raise ValueError('palette invariant broken')\n"
        "coloring._check_palette = broken\n"
        "sys.exit(main(['color', '--family', 'fano']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert "ValueError: palette invariant broken" in proc.stderr


def test_gen_writes_canonical_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--family", "fano")
    assert code == 0
    assert out == serialize_hgr(fano())

    target = tmp_path / "out.hgr"
    code, out, _ = run_cli(capsys, "gen", "--family", "cycle:5", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == serialize_hgr(
        generate(FamilySpec("cycle", n=5))
    )


def test_color_methods_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "color", "--family", "fano", "--method", "greedy")
    assert code == 0
    assert "colors-used: 7" in out

    code, out, _ = run_cli(capsys, "color", "--family", "fano", "--method", "brooks")
    assert code == 0

    code, out, _ = run_cli(
        capsys, "color", "--family", "cycle:5", "--method", "vizing", "--json"
    )
    assert code == 0
    assert json.loads(out)["colors_used"] == 3

    code, _, err = run_cli(capsys, "color", "--family", "fano", "--method", "vizing")
    assert code == 2
    assert "2 vertices" in err

    # STS(15) needs 9 colors, above its clique and counting floor of 7, so
    # no coloring closes the bracket that 8 nodes leave.
    code, out, err = run_cli(
        capsys,
        "color",
        "--family",
        "steiner-triple:15",
        "--method",
        "exact",
        "--budget",
        "8",
        "--time-limit",
        "0",
    )
    assert code == 4
    assert "budget exhausted: q is in [7, 9]" in err
    assert "colors-used: 9" in out

    code, out, _ = run_cli(
        capsys,
        "color",
        "--family",
        "complete-graph:5",
        "--method",
        "exact",
        "--time-limit",
        "0",
    )
    assert code == 0
    assert "colors-used: 5" in out


# sha256 of the stdout of `color` runs.  Every colorer and the oracle
# hand the reports the same Coloring; these pin what the reports make of it.
COLOR_DIGESTS = [
    ("fano --method greedy --order index", "c99b60db529af8cce5c8ac7fb2edc2d980d32431f9946ed6e27c156926a42e8e"),
    ("fano --method greedy --order desc-degree", "c99b60db529af8cce5c8ac7fb2edc2d980d32431f9946ed6e27c156926a42e8e"),
    ("fano --method greedy --order random --seed 3", "83b952a537c32d262da9e42183af134516ce6c52403fa5aa53b7d827c22ad3b7"),
    ("fano --method brooks", "0d5183e2b7ceec2153e8f511b19034afb19cc4b8e4eb9cfd12bf77d966df52c3"),
    ("fano --method exact", "7050fd2f19961f3c7a2f9265394e7af1c25f69a912b5dced2ac475362431804e"),
    ("steiner-triple:15 --method greedy --order index", "087902765c15027fc04b2a7b5d91e96918aa43586b4a100197733edc46fea0db"),
    ("steiner-triple:15 --method greedy --order desc-degree", "087902765c15027fc04b2a7b5d91e96918aa43586b4a100197733edc46fea0db"),
    ("steiner-triple:15 --method greedy --order random --seed 3", "2da730aba7059a8bfe57a3e2d576ca6b7d086ed73ac18a63200b21920667b0e0"),
    ("steiner-triple:15 --method brooks", "a449346bc7291db609216fcb7b1e3dcfda064a0b2ae195b80c6fe45a4fb50cb0"),
    ("steiner-triple:15 --method exact", "786f51481a22ea7664c460a543ba8f1f125d1b80b1145f80e898fa856090926d"),
    ("cycle:7 --method vizing", "e148de113dd27cfe682f66d8dc086b1fa91dd79a07b9fbbbfc28684561e2f255"),
    ("cycle:7 --method vizing --json", "cc7c22488241188a939f75868fbaaa1d5b0762275cb445aa50ede3e0d572b17d"),
    ("complete-graph:6 --method vizing", "904c36ed6cb3213c370455f53eaac771d01d576c5751259cb887398af41200aa"),
    ("complete-graph:6 --method vizing --json", "af5d9e3a0019b610059d77f7fc2ab9d4b0c766a6070f3714483d1d9fc277b816"),
]


def test_color_reports_are_pinned_byte_for_byte(capsys):
    for args, expected in COLOR_DIGESTS:
        code, out, _ = run_cli(capsys, "color", "--family", *args.split())
        assert code == 0, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, args


# sha256 of `stats` and `verify --no-exact --inequalities` stdout, recorded
# while linearity and connectivity still had their own Hypergraph methods.
# The inputs: fano; a disconnected instance with a loop and isolated
# vertices; a non-linear one holding one edge three times.
STRUCTURE_DIGESTS = [
    ("stats fano", "d6d454b308bf8c1e13ee111b888350b776fc39c3a7f5b2807b6e422a9931ee64"),
    ("stats fano --json", "ce40c2ade96eb634112bbd15742b7c005bf59e86088635634fe4b646b498b9ce"),
    ("verify fano --no-exact --inequalities", "b1f234910be14c5493c78108b6b3cea3f00de79546a48ad3986c92dfc6be1c9d"),
    ("verify fano --no-exact --inequalities --json", "b91cc5f3590daf0016d2ca3c94e857282668761750ec78e575895cd980365cc7"),
    ("stats random:n=9,m=5,sizes=1-3,seed=0", "87ad69ae8e69e1b6bfc06d2046f5f6d326b2455256c663320c097a0047ee438f"),
    ("stats random:n=9,m=5,sizes=1-3,seed=0 --json", "3c77c79fa8f983011c2b3fc462f0379127bb261d030a8e12668a63ae8a16bd1b"),
    ("verify random:n=9,m=5,sizes=1-3,seed=0 --no-exact --inequalities", "2953c9ef83d10a832d0e18a3c0e15d4b0c084009ad2b7147d33553fb28dcaaa9"),
    ("verify random:n=9,m=5,sizes=1-3,seed=0 --no-exact --inequalities --json", "eb9d33f170e06e24afc8f55e2db4b7000ac05b81e77f02269dc04e570eafe12e"),
    ("stats random:n=5,m=6,sizes=2-3,seed=1", "aedeb7ff7954425c46b15c2c85ca5aadc8f6a5d1837ba17f0991a9522b02ef86"),
    ("stats random:n=5,m=6,sizes=2-3,seed=1 --json", "a85c5586e3c117c25500901121126ec45dc5120b3f7175327833aad366d8484d"),
    ("verify random:n=5,m=6,sizes=2-3,seed=1 --no-exact --inequalities", "d1f972d492bd6da91ef4df378a845d08bf26dd3ed63493eef890f1a668d5f78d"),
    ("verify random:n=5,m=6,sizes=2-3,seed=1 --no-exact --inequalities --json", "83f4ea32bbeb8ca4d4b6ea7bdab96ee8e2c4af0aabdfed73fc77e1c80e2ddcb4"),
]


def test_stats_and_verify_reports_are_pinned_byte_for_byte(capsys):
    disconnected = generate(parse_family("random:n=9,m=5,sizes=1-3,seed=0")).stats()
    assert not disconnected.connected and not disconnected.loopless
    assert disconnected.min_degree == 0
    repeated = generate(parse_family("random:n=5,m=6,sizes=2-3,seed=1"))
    assert not repeated.stats().linear and len(set(repeated.edges)) < repeated.m
    for args, expected in STRUCTURE_DIGESTS:
        command, family, *flags = args.split()
        code, out, _ = run_cli(capsys, command, "--family", family, *flags)
        assert code == 0, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, args


def test_color_greedy_order_flags(capsys):
    code1, out1, _ = run_cli(
        capsys, "color", "--family", "fano", "--order", "random", "--seed", "3"
    )
    code2, out2, _ = run_cli(
        capsys, "color", "--family", "fano", "--order", "random", "--seed", "3"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--family", "fano")
    assert code == 0
    assert "status: HOLDS" in out

    loops = tmp_path / "loops.hgr"
    loops.write_text(LOOPS, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(loops))
    assert code == 3
    assert "status: VIOLATED" in out

    # K_5 sits at the bound, q = 5.  With no node, DSATUR's 6 colors and
    # the counting floor of 5 straddle it; 8 nodes and the TabuCol pass
    # close the bracket.
    code, out, _ = run_cli(
        capsys, "verify", "--family", "complete-graph:5", "--no-exact"
    )
    assert code == 4
    assert "status: UNRESOLVED" in out
    assert "q-lower: 5" in out
    assert "q-upper: 6" in out

    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "complete-graph:5",
        "--budget",
        "8",
        "--time-limit",
        "0",
    )
    assert code == 0
    assert "status: HOLDS" in out
    assert "q-exact: 5" in out


def _counting_line_graphs(monkeypatch):
    """Count the oracle's line-graph builds, recording each input's m."""
    calls = []

    def counted(h):
        calls.append(h.m)
        return line_graph(h)

    monkeypatch.setattr(oracle, "line_graph", counted)
    return calls


def test_critical_builds_one_line_graph_per_input(capsys, monkeypatch):
    # Every row searched in the table or the extraction is the input less
    # some positions, a mask on the input's one line graph, so no row
    # builds a graph; _Rows' greedy clique reads that graph as well.
    built = counting_builds(monkeypatch, Hypergraph, "_line_graph")
    calls = counting_searches(monkeypatch)
    code, out, _ = run_cli(
        capsys, "critical", "--family", "random-linear:n=16,m=22,k=3,seed=6"
    )
    assert code == 0
    # The base search, then 16 rows of the extraction, each on h without
    # the rows deleted so far (row 0, the first deleted, is read from the
    # drop search's table of h, which decides every row; 31 calls with a
    # search per row of h, 44 at table first).
    searched = [m for m, _ in calls]
    assert searched == [22, 20, 19, 19, 19, 19, 18, 17, 17, 16, 16, 15, 15, 14, 13, 13, 13]
    assert built == [22]


def test_verify_no_exact_floods_the_components_once(capsys, monkeypatch):
    # stats().connected and the oracle read the input's components from
    # the one flood its Hypergraph keeps.
    floods = []
    flood = transforms._component_masks

    def counted(g, active):
        floods.append(active.bit_count())
        return flood(g, active)

    for module in (core, oracle):
        monkeypatch.setattr(module, "_component_masks", counted)
    family = "random:n=4000,m=2000,sizes=1-3,seed=3"
    code, out, _ = run_cli(capsys, "verify", "--no-exact", "--family", family)
    assert code == 0 and "connected: no" in out
    assert floods == [2000]


def test_rows_are_derived_only_where_they_are_read(capsys, monkeypatch):
    # The oracle and both colorers read the masks only.
    for args, reads_rows in (
        (["critical", "--family", "random-linear:n=16,m=22,k=3,seed=6"], False),
        (["verify", "--no-exact", "--family", "steiner-triple:99"], False),
        (["color", "--family", "steiner-triple:15", "--method", "greedy"], False),
        (["color", "--family", "steiner-triple:15", "--method", "brooks"], False),
    ):
        derived = counting_builds(monkeypatch, SimpleGraph, "adj")
        code, _, _ = run_cli(capsys, *args)
        monkeypatch.undo()
        assert code == 0, args
        assert bool(derived) == reads_rows, (args, derived)


def test_critical_builds_the_incidence_lists_once(capsys, monkeypatch):
    # A searched row is a mask on the input's line graph, and the
    # maximum-degree floor of an open row bracket reads the input's
    # incidence lists less the gone positions: only the input builds them.
    built = counting_builds(monkeypatch, Hypergraph, "_incidence")
    code, _, _ = run_cli(
        capsys, "critical", "--family", "random-linear:n=16,m=22,k=3,seed=6"
    )
    assert code == 0
    assert built == [22]


def test_critical_builds_the_proof_rows_once(capsys, monkeypatch):
    # The table and the core share one _Rows, built from the base search.
    built = []

    class CountedRows(oracle._Rows):
        def __init__(self, h, q, witness):
            built.append(h.m)
            super().__init__(h, q, witness)

    monkeypatch.setattr(oracle, "_Rows", CountedRows)
    family = "random-linear:n=16,m=22,k=3,seed=1"
    code, out, _ = run_cli(capsys, "critical", "--family", family, "--time-limit", "0")
    assert code == 0 and "core-m: " in out
    assert built == [22]


def _no_exact_floor(h):
    """The larger of a greedy clique of the whole line graph and the
    maximum degree: no --no-exact lower end may fall below it."""
    return max(len(greedy_clique(line_graph(h))), h.stats().max_degree)


def test_verify_no_exact_is_the_oracle_at_zero_nodes(capsys, monkeypatch):
    families = (
        "fano",
        "steiner-triple:15",
        "complete-graph:5",
        "random:n=9,m=5,sizes=1-3,seed=0",
    )
    for family in families:
        h = generate(parse_family(family))
        for extra in ([], ["--json"]):
            zero = run_cli(
                capsys, "verify", "--family", family,
                "--budget", "0", "--time-limit", "0", *extra,
            )
            calls = _counting_line_graphs(monkeypatch)
            got = run_cli(capsys, "verify", "--family", family, "--no-exact", *extra)
            monkeypatch.undo()
            assert got == zero, (family, extra)
            # The input's one line graph, whatever its components.
            assert calls == [h.m], (family, extra)
        payload = json.loads(got[1])
        assert payload["oracle_nodes"] == 0
        assert payload["q_lower"] >= _no_exact_floor(h), family
        assert payload["q_upper"] == len(set(payload["witness"]))


def test_survey_no_exact_is_the_oracle_at_zero_nodes(capsys, monkeypatch):
    base = ["survey", "--count", "20", "--seed", "3"]
    for extra in ([], ["--json"]):
        zero = run_cli(capsys, *base, "--budget", "0", *extra)
        calls = _counting_line_graphs(monkeypatch)
        got = run_cli(capsys, *base, "--no-exact", *extra)
        monkeypatch.undo()
        assert got == zero, extra
        # One line graph per instance, whatever its components.
        hs = [survey_instance(3, i, (6, 12), (4, 16), (2, 3, 4))[1] for i in range(20)]
        assert calls == [h.m for h in hs]
    for row in json.loads(got[1])["instances"]:
        _, h = survey_instance(3, row["index"], (6, 12), (4, 16), (2, 3, 4))
        assert row["input_sha256"] == digest(h)
        assert row["oracle_nodes"] == 0
        assert row["q_lower"] >= _no_exact_floor(h), row["index"]


def test_verify_json_and_inequalities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "fano", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "HOLDS"
    assert payload["bounds"]["two_section"] == 7

    code, out, _ = run_cli(capsys, "verify", "--family", "fano", "--inequalities")
    assert code == 0
    assert out.count("check ") == 3
    assert "FAILED" not in out


def test_a_failed_structural_check_is_an_internal_error(capsys, monkeypatch):
    def failing(h):
        rep = inequality_suite(h)
        first, *rest = rep.checks
        return InequalityReport((replace(first, ok=False), *rest))

    argv = ("verify", "--family", "fano", "--inequalities")
    _, text, _ = run_cli(capsys, *argv)
    _, payload, _ = run_cli(capsys, *argv, "--json")
    monkeypatch.setattr(cli, "inequality_suite", failing)
    alarm = "internal error: structural check failed: two-section-degree-floor\n"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, alarm)
    assert out == text.replace(
        "two-section-degree-floor: checked ok", "two-section-degree-floor: checked FAILED"
    )
    # The checks run under --json too, and leave its stdout as it was.
    assert run_cli(capsys, *argv, "--json") == (1, payload, alarm)
    # VIOLATED keeps exit code 3 whatever else failed.
    verify = cli.verify_conjecture
    monkeypatch.setattr(
        cli,
        "verify_conjecture",
        lambda *a, **kw: replace(verify(*a, **kw), status=analysis.VIOLATED),
    )
    assert run_cli(capsys, *argv)[0] == 3


def test_budget_defaults_come_from_the_budget_type(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "(default 10000000)" in help_text
    assert "(default 30)" in help_text
    args = cli.build_parser().parse_args(["verify", "--family", "fano"])
    assert cli._budget(args) == Budget()


def test_the_environment_does_not_change_a_report(capsys, monkeypatch):
    argv = ["verify", "--family", "steiner-triple:15", "--time-limit", "0"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "q-exact: 9\n" in plain and "oracle-nodes: 35332\n" in plain
    monkeypatch.setenv("HYPERCOLOR_MAX_NODES", "0")
    monkeypatch.setenv("HYPERCOLOR_TIME_LIMIT", "0.001")
    assert run_cli(capsys, *argv) == (0, plain, "")


def test_gen_seed_and_the_colon_range_are_gone(capsys):
    # The family string's seed= is the one way to seed gen.
    code, out, _ = run_cli(
        capsys, "gen", "--family", "random-linear:n=8,m=5,k=3,seed=7"
    )
    assert code == 0
    assert out == serialize_hgr(random_linear(8, 5, 3, 7))
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--family", "random-linear:n=8,m=5,k=3", "--seed", "7"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "survey", "--count", "1", "--n-range", "6:8")
    assert code == 2
    assert out == ""
    assert err == "error: --n-range must be LO..HI, got '6:8'\n"


# env holds variables the program must not read: the error names the flag
# or family parameter at fault, never the environment.
@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["verify", "--family", "fano", "--budget", "-5"], {}, "--budget"),
        (["verify", "--family", "fano", "--time-limit", "-1"], {}, "--time-limit"),
        (["verify", "--family", "fano", "--time-limit", "nan"], {}, "--time-limit"),
        (["survey", "--count", "2", "--jobs", "0"], {}, "--jobs"),
        (["survey", "--count", "1", "--n-range", "6..+8"],
         {"HYPERCOLOR_MAX_NODES": "many"}, "--n-range"),
        (["survey", "--count", "1", "--k", "2,\u0663"],
         {"HYPERCOLOR_MAX_NODES": "-3"}, "--k"),
        (["verify", "--family", "complete-graph:5_0"],
         {"HYPERCOLOR_TIME_LIMIT": "soon"}, "complete-graph needs an integer n"),
        (["verify", "--family", "random-linear:n=8,m=5,k=3,seed=+1"],
         {"HYPERCOLOR_TIME_LIMIT": "-0.5"}, "seed must be an integer"),
        (["verify", "--family", "fano", "--no-exact", "--budget", "-5"], {}, "--budget"),
        (["survey", "--count", "2", "--no-exact", "--time-limit", "-1"], {},
         "--time-limit"),
        (["verify", "--family", "fano", "--time-limit", "1_0"], {}, "--time-limit"),
        (["verify", "--family", "fano", "--time-limit", "+1"], {}, "--time-limit"),
        (["verify", "--family", "fano", "--time-limit", "\u0663"], {}, "--time-limit"),
        (["critical", "--family", "fano", "--time-limit", "inf"], {}, "--time-limit"),
    ],
)
def test_budget_inputs_are_validated(capsys, monkeypatch, argv, env, named):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err
    assert "HYPERCOLOR" not in err


def test_critical_command(capsys, tmp_path):
    path = tmp_path / "path.hgr"
    path.write_text("p hgr 3 2\ne 1 2\ne 2 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "critical", str(path))
    assert code == 0
    assert "hyperedge 0: degree 1 q-without 1 critical yes" in out
    assert "core-m: 2" in out

    code, out, _ = run_cli(capsys, "critical", str(path), "--no-extract", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_exact"] == 2
    assert "core" not in payload

    code, out, _ = run_cli(
        capsys,
        "critical",
        "--family",
        "steiner-triple:15",
        "--budget",
        "8",
        "--time-limit",
        "0",
    )
    assert code == 4
    assert "q-exact: none" in out


@pytest.mark.parametrize(
    "family", ["fano", "steiner-triple:9", "random-linear:n=16,m=22,k=3,seed=1"]
)
def test_critical_of_a_written_family_prints_the_same_bytes(capsys, tmp_path, family):
    # The report names its input only by the sha256 of its canonical hgr
    # text, and the file gen writes parses back to the family's hypergraph,
    # so both give one report.  A workload may time critical on files.
    path = tmp_path / "input.hgr"
    assert run_cli(capsys, "gen", "--family", family, "-o", str(path))[0] == 0
    from_file = run_cli(capsys, "critical", str(path))
    assert from_file[0] == 0
    assert from_file == run_cli(capsys, "critical", "--family", family)


def test_critical_computes_the_base_q_once(capsys, monkeypatch):
    # A decided base q whose table flags are F,F,F,F,T,T, then one the
    # budget leaves undecided.
    cases = [
        ("random-linear:n=8,m=6,k=3,seed=1", Budget(1_000_000, None), 0),
        ("steiner-triple:15", Budget(8, None), 4),
    ]
    expected = {}
    for family, budget, _ in cases:
        h = generate(parse_family(family))
        rep = criticality_report(h, budget, extract=True)
        expected[family] = render_criticality(h, rep)
    searches = counting_searches(monkeypatch)
    for family, budget, exit_code in cases:
        m = generate(parse_family(family)).m
        searches.clear()
        code, out, _ = run_cli(
            capsys, "critical", "--family", family,
            "--budget", str(budget.max_nodes), "--time-limit", "0",
        )
        assert code == exit_code
        assert out == expected[family]
        calls = [searched for searched, _ in searches]
        assert calls.count(m) == 1
        if exit_code == 0:
            # One base call; the drop search decides every row of h.  The
            # extraction deletes row 0 as that table says, then searches
            # row 1 on h - {0} and deletes it too.  Proofs of the base
            # search and the exchange argument settle every other row of
            # the core.
            assert calls == [m, m - 2]
        else:
            assert calls == [m]


def _oracle_calls(monkeypatch, h, budget, extract=True):
    """criticality_report(h, budget, extract) and the edge counts of the
    hypergraphs its oracle calls search, in order."""
    calls = counting_searches(monkeypatch)
    rep = criticality_report(h, budget, extract=extract)
    monkeypatch.undo()
    return rep, [searched for searched, _ in calls]


def test_critical_extraction_keeps_table_proven_rows_under_a_small_budget(capsys, monkeypatch):
    # Within 20 nodes the table decides every row: row 5, the one a search
    # leaves open, is critical by the exchange argument from row 0's
    # coloring.  The core is the default-budget one.
    family = "random-linear:n=12,m=14,k=3,seed=14"
    h = generate(parse_family(family))
    budget = Budget(20, None)
    rep = criticality_report(h, budget, extract=True)
    assert rep.complete and rep.entries[5].critical is True
    core = rep.core
    assert core == criticality_report(h, Budget(time_limit=None), extract=True).core
    assert core.complete and core.removed == (3, 8, 9) and core.hypergraph.m == 11
    code, out, _ = run_cli(
        capsys, "critical", "--family", family, "--budget", "20", "--time-limit", "0"
    )
    assert code == 0
    assert out == render_criticality(h, rep)
    # Within 20 nodes, row 1 is undecided on h without row 0, the first
    # row the core deletes.  Its row in h is critical, so the core keeps it
    # and goes on: the default-budget core again, complete.
    family = "random-linear:n=14,m=16,k=3,seed=33"
    h = generate(parse_family(family))
    rep, calls = _oracle_calls(monkeypatch, h, budget)
    # The base search, row 0 on h, row 1 on h - {0}, row 1 on h, rows 2
    # and 3 on h - {0}, then row 2 of the table.
    assert calls == [16, 15, 14, 15, 14, 14, 15]
    assert rep.entries[1].critical is True
    assert rep.complete
    core = rep.core
    assert core == criticality_report(h, Budget(time_limit=None), extract=True).core
    assert core.complete and core.removed == (0, 3)
    code, out, _ = run_cli(
        capsys, "critical", "--family", family, "--budget", "20", "--time-limit", "0"
    )
    assert code == 0
    assert out == render_criticality(h, rep)


def test_critical_extraction_searches_the_rows_the_table_left_open(monkeypatch):
    # q is known, but the table alone leaves rows 1, 2, 4, 7 and 10
    # undecided within 5 nodes, and no proof of the base search settles
    # them.  The core comes first: after its first deletion (row 0) rows
    # 1, 2, 4 and 10 are searched on smaller hypergraphs, which settles
    # them (1 and 4 removable, so removable in h too, 2 and 10 critical
    # there).
    h = generate(parse_family("random-linear:n=12,m=14,k=3,seed=21"))
    budget = Budget(5, None)
    table = criticality_report(h, budget)
    assert [e.position for e in table.entries if e.critical is None] == [1, 2, 4, 7, 10]
    rep, calls = _oracle_calls(monkeypatch, h, budget)
    assert rep.q == 5
    assert [e.position for e in rep.entries if e.critical is None] == [2, 7, 10]
    # The base search; rows 0, 1 and 2 on 13, 12 and 11 edges, 4 on 11,
    # and 5, 6, 8, 9 and 10 on 10 down to 6; then the seven rows of the
    # core that no proof settles in h, on 13.
    assert calls == [14, 13, 12, 11, 11, 10, 9, 8, 7, 6] + [13] * 7
    core = rep.core
    full = criticality_report(h, Budget(time_limit=None), extract=True).core
    assert core == full
    assert core.complete and core.removed == (0, 1, 4, 5, 6, 8, 9)


def test_critical_extraction_stops_at_a_row_the_table_left_open(capsys, monkeypatch):
    # The drop search decides 8 rows within 20 nodes and leaves row 0
    # open, and so does row 0's own search.  Before any deletion its
    # candidate is the table's row, so extraction stops there, incomplete,
    # and the table does not search it again: with or without extract, the
    # same rows are searched.
    family = "random-linear:n=12,m=14,k=3,seed=24"
    h = generate(parse_family(family))
    budget = Budget(20, None)
    rep, calls = _oracle_calls(monkeypatch, h, budget)
    assert rep.q == 6 and rep.entries[0].critical is None
    assert calls == _oracle_calls(monkeypatch, h, budget, extract=False)[1]
    assert calls == [14] + [13] * 6
    assert rep.core == CriticalCore(h, False, ())
    code, out, _ = run_cli(
        capsys, "critical", "--family", family, "--budget", "20", "--time-limit", "0"
    )
    assert code == 4
    assert out == render_criticality(h, rep)


# sha256 of `critical --time-limit 0` stdout, recorded while every row of
# the table was still searched: the proofs of the base search and the
# seeded searches must give the same table and core.
CRITICAL_DIGESTS = [
    ("random-linear:n=16,m=22,k=3,seed=1", "e109e55b044e355526a89b8e74e620e3f0241a5977f5db6d826c43b8924249a6"),
    ("random-linear:n=16,m=22,k=3,seed=1 --json", "2f7901f5135ecab3b1c019e2fe7fd1ebe7bfce9ae2366bca1d9c169240c461f6"),
    ("random-linear:n=16,m=22,k=3,seed=2", "dd8a760c1eea89a0d09519905a4b989a650007ba86e9242a63659b145e7d29c8"),
    ("random-linear:n=16,m=22,k=3,seed=2 --json", "c8912b7e05484ea075d14945fe02ed5198d225cb15d86e90c9a319be2c3cf994"),
    ("random-linear:n=16,m=22,k=3,seed=3", "047b65716d1d6c49292d641bf2d7c9a66c1d2aac6ee474176164b9064008ef1c"),
    ("random-linear:n=16,m=22,k=3,seed=3 --json", "b1aa6c7ba1bdc5611f2bd2f681d0c1ae88def44085b9e5d4509eb43c5fef709d"),
    ("random-linear:n=16,m=22,k=3,seed=4", "efd89d5cfef0380f32eeca692b2436ef79ed8a1445aeba1b1a166c7915bbfec2"),
    ("random-linear:n=16,m=22,k=3,seed=4 --json", "05ce66d27f650e127d4240aeda5f7359a3de1bf5e02a9b18d28570be5a0f7a63"),
    ("random-linear:n=20,m=16,k=4,seed=1", "6934acb23e16ed545d6fd43971b7b664be3612d536a1265086cd0d428f4d04b2"),
    ("random-linear:n=20,m=16,k=4,seed=1 --json", "e0b396f531c8d26485f5a4eb76278911028fbfcac3420561db33e153d06bf49a"),
    ("random-linear:n=20,m=16,k=4,seed=2", "482b3efdf4d26d9a750da272bf6af2f98c9438b2c3900dd370024cfc1e40536f"),
    ("random-linear:n=20,m=16,k=4,seed=2 --json", "5e81ccba69323e89bebd22d7c6831e912efcdfc10a90bbae8b67a233cbbfb224"),
    ("random-linear:n=20,m=16,k=4,seed=3", "ee913572652ecdfcbacca19f1d4970c990f279004acccfbbfc3e20c16e7549c1"),
    ("random-linear:n=20,m=16,k=4,seed=3 --json", "f1beb1f1b4c76fdc15dae4b4866b17ee6025d34cdf0b020d26dd71baf056a353"),
    ("random-linear:n=20,m=16,k=4,seed=4", "ab21116f1bd35d266c2065a9f28ed1864b9ff53713a6bddbe6c02f19cb70ae20"),
    ("random-linear:n=20,m=16,k=4,seed=4 --json", "e64d8e0f8c69c11484b0df8a67a867c045534f31f29db35f7e57c23d9f0b97cd"),
    ("fano", "9d16e94699f3f811010acf7ccc3a5559f68c46899968f6b8e87f5ef9c4137fd8"),
    ("fano --json", "86bd5a56995d827fe7fb23d59bc7e8db9fd508f720f2b31b27ea2afee22aa70d"),
    ("cycle:7", "0c5e1f2a84371da9bdb1609a1eae78fefac6f1e6c30cb33ff1220e51e5e37adf"),
    ("cycle:7 --json", "b122389596f6675bf7e486c84e517cd798305d19d7b9c8127d76cfe71a5bd7b8"),
]


def test_critical_reports_are_pinned_byte_for_byte(capsys):
    for args, expected in CRITICAL_DIGESTS:
        code, out, _ = run_cli(
            capsys, "critical", "--family", *args.split(), "--time-limit", "0"
        )
        assert code == 0, args
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, args


def test_survey_text_json_and_jobs_agree(capsys):
    args = ["survey", "--count", "5", "--seed", "42", "--time-limit", "0"]
    code, serial, _ = run_cli(capsys, *args)
    assert code == 0
    assert "instances: 5" in serial
    assert "holds: 5" in serial
    assert "violated: 0" in serial

    code, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code == 0
    assert parallel == serial

    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] == 5
    assert len(payload["instances"]) == 5
    assert [row["index"] for row in payload["instances"]] == list(range(5))
    assert all(row["status"] == "HOLDS" for row in payload["instances"])


# sha256 of `survey --count 100 --seed 7 --time-limit 0` stdout, recorded
# before random_linear stopped early on a full packing: the generator must
# place the same edges and retry the same instances as its rejection form.
# The JSON one was re-recorded when the counting floor came to end
# searches: instance 64 (7 vertices, 16 edges, q = 6) is settled before a
# node, and its oracle_nodes fell from 90 to 0; nothing else moved.
# Both were re-recorded when a survey instance came to end at an edge
# that does not fit instead of being drawn again with one edge fewer:
# 53 of the 100 instances changed.
SURVEY_DIGESTS = [
    ((), "0fe14eca02ffa84f85f00401293fc998e968fe167f58d9b248838a7b60a7a498"),
    (("--json",), "952309c576c74eeba271ac3696f0d0f4fcfc0b7b692bef4940e9bac38d331254"),
]


def test_survey_jobs_start_no_more_workers_than_instances(capsys, monkeypatch):
    usable_cpus = cli._usable_cpus
    children = []

    class InlineProcess:
        # Records the child's share and runs it in this process at start:
        # no process starts.
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            children.append(len(self.args[0]))
            self.target(*self.args)

        def join(self):
            pass

    def workers(cpus):
        # This process is one worker, and each child another.
        children.clear()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert run_cli(capsys, *args, "--jobs", "64") == serial
        return 1 + len(children)

    args = ["survey", "--count", "3", "--seed", "5", "--time-limit", "0"]
    serial = run_cli(capsys, *args, "--jobs", "1")
    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    assert workers(8) == 3
    assert children == [1, 1]
    assert workers(2) == 2
    assert children == [1]
    assert workers(1) == 1

    # The cap counts the CPUs this process may run on, not the host's.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


# The failure tests patch cli.survey_instance, which a child sees only when
# it is a fork of this process.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the survey workers do not start by fork",
)


def _patch_survey_instance(monkeypatch, fail):
    """cli.survey_instance, calling fail(index) first."""
    real = cli.survey_instance

    def survey_instance(seed, index, *rest):
        fail(index)
        return real(seed, index, *rest)

    monkeypatch.setattr(cli, "survey_instance", survey_instance)


@needs_fork
@pytest.mark.parametrize(
    "jobs, failing",
    [
        # At 2 workers this process runs 0, 2, 4, 6 and the child 1, 3, 5.
        (2, {4}),
        (2, {3}),
        (2, {3, 6}),
        (2, {2, 5}),
        # At 3: this process 0, 3, 6, the children 1, 4 and 2, 5.
        (3, {3}),
        (3, {5}),
        (3, {4, 5, 6}),
        (3, {3, 4}),
    ],
)
def test_a_parallel_survey_fails_as_a_serial_one(capsys, monkeypatch, jobs, failing):
    def fail(index):
        if index in failing:
            raise GenerationError(f"boom at {index}")

    _patch_survey_instance(monkeypatch, fail)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: jobs)
    args = ["survey", "--count", "7", "--seed", "5", "--time-limit", "0"]
    serial = run_cli(capsys, *args, "--jobs", "1")
    assert serial == (2, "", f"error: boom at {min(failing)}\n")
    assert run_cli(capsys, *args, "--jobs", str(jobs)) == serial
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot be sent")
        self.held = lambda: None


@needs_fork
@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("death, code", [("exit", 7), ("unpicklable", 1)])
def test_a_survey_worker_that_dies_is_an_internal_error(monkeypatch, jobs, death, code):
    parent = os.getpid()

    def fail(index):
        # Index 1 is a child's at any worker count; the test process must
        # never run this.
        if index == 1 and os.getpid() != parent:
            if death == "exit":
                os._exit(code)
            raise _Unpicklable()

    _patch_survey_instance(monkeypatch, fail)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: jobs)
    # main lets a RuntimeError out, so the command exits 1 with a
    # traceback; an OSError or EOFError from the pipe would exit 2.
    argv = ["survey", "--count", "7", "--seed", "5", "--time-limit", "0"]
    with pytest.raises(RuntimeError, match=f"exited with code {code} before") as info:
        main([*argv, "--jobs", str(jobs)])
    assert not isinstance(info.value, OSError)
    assert multiprocessing.active_children() == []


def test_a_survey_pipe_error_is_not_bad_input(monkeypatch):
    # A reset pipe is an OSError, which main would report as bad input.
    def reset(self):
        raise ConnectionResetError("reset by peer")

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", reset)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="before sending its rows"):
        main(["survey", "--count", "2", "--time-limit", "0", "--jobs", "2"])
    assert multiprocessing.active_children() == []


@needs_fork
def test_an_interrupted_survey_terminates_its_workers(monkeypatch):
    parent = os.getpid()

    def fail(index):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    _patch_survey_instance(monkeypatch, fail)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["survey", "--count", "2", "--time-limit", "0", "--jobs", "2"])
    # Joined without the terminate, the child would sleep its 60 s out.
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_uneven_survey_shares_come_back_in_index_order(capsys, monkeypatch):
    # 7 instances at 3 workers: shares of 3, 2 and 2 indices.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    args = ["survey", "--count", "7", "--seed", "11", "--time-limit", "0", "--json"]
    serial = run_cli(capsys, *args, "--jobs", "1")
    parallel = run_cli(capsys, *args, "--jobs", "3")
    assert [row["index"] for row in json.loads(parallel[1])["instances"]] == list(range(7))
    assert parallel == serial
    assert multiprocessing.active_children() == []


def test_only_a_parallel_survey_loads_the_process_pool():
    # A fresh interpreter: other tests here run survey --jobs 2, which
    # loads multiprocessing into this process for good.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from hypercolor.cli import main\n"
        "for argv in (['verify', '--family', 'fano', '--no-exact'],\n"
        "             ['critical', '--family', 'fano'],\n"
        "             ['survey', '--count', '3', '--jobs', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "hypercolor.cli" in added
    pool = [
        name
        for name in added
        if name == "concurrent.futures.process"
        or name.partition(".")[0] == "multiprocessing"
    ]
    assert pool == []


def test_survey_reports_are_pinned_byte_for_byte(capsys):
    for extra, expected in SURVEY_DIGESTS:
        code, out, _ = run_cli(
            capsys, "survey", "--count", "100", "--seed", "7", "--time-limit", "0", *extra
        )
        assert code == 0, extra
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, extra


def test_gen_says_why_an_edge_could_not_be_placed(capsys):
    # K_4 holds six vertex pairs, so no seventh 2-set is free: the generator
    # proves this after one draw and says so, on the edge the cap fails on.
    code, out, err = run_cli(capsys, "gen", "--family", "random-linear:n=4,m=100,k=2")
    assert code == 2
    assert out == ""
    assert err == (
        "error: could not place edge 7 of 100 (n=4, k=2): "
        "no k-set avoids the used vertex pairs\n"
    )


def test_gen_refuses_a_random_family_past_one_rng_draw(capsys):
    # One Rng draw covers at most 2**64 vertices.
    for family in (
        "random:n=18446744073709551617,m=1,sizes=1-2,seed=1",
        "random-linear:n=18446744073709551617,m=1,k=2,seed=1",
    ):
        code, out, err = run_cli(capsys, "gen", "--family", family)
        assert (code, out) == (2, ""), family
        name = family.partition(":")[0]
        assert err == f"error: {name} needs n at most 2**64, got 18446744073709551617\n"


def test_survey_range_syntax_and_validation(capsys):
    code, out, _ = run_cli(
        capsys,
        "survey",
        "--count",
        "2",
        "--seed",
        "1",
        "--n-range",
        "6..8",
        "--m-range",
        "4..6",
        "--time-limit",
        "0",
    )
    assert code == 0

    for bad_args in (
        ["--n-range", "9..6"],
        ["--n-range", "six"],
        ["--n-range", "1..4"],
        ["--m-range", "0..4"],
        # One Rng draw covers at most 2**64 values.
        ["--n-range", "2..18446744073709551618"],
        ["--m-range", "1..18446744073709551617"],
        ["--k", "1,3"],
        ["--k", "x"],
        ["--count", "-1"],
    ):
        base = ["survey", "--count", "2", "--seed", "1", "--time-limit", "0"]
        if bad_args[0] == "--count":
            base = ["survey", "--seed", "1"]
        code, _, err = run_cli(capsys, *base, *bad_args)
        assert code == 2, bad_args
        assert err.startswith("error:")


def test_survey_count_zero(capsys):
    code, out, _ = run_cli(capsys, "survey", "--count", "0", "--seed", "9")
    assert code == 0
    assert "instances: 0" in out
    # The ranges are checked even when no instance is drawn, by the rule
    # survey_instance applies to each instance.
    code, out, err = run_cli(capsys, "survey", "--count", "0", "--m-range", "0..4")
    assert (code, out) == (2, "")
    assert err == "error: survey m range must start at 1 or more, got 0..4\n"
    code, out, err = run_cli(capsys, "survey", "--count", "0", "--k", "1,3")
    assert (code, out) == (2, "")
    assert err == "error: survey edge sizes must be at least 2, got 1,3\n"


def test_argparse_level_failures_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["survey"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err2:
        main(["color", "--family", "fano", "--method", "sparkle"])
    assert err2.value.code == 2
    # survey samples random linear instances only; it takes no --family.
    with pytest.raises(SystemExit) as err3:
        main(["survey", "--count", "1", "--family", "random-linear"])
    assert err3.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert f"hypercolor {TOOL_VERSION}" in capsys.readouterr().out


def test_one_parser_serves_every_main_call(capsys, monkeypatch):
    # main builds its parser once per process.  A parser that has already
    # parsed must print what a fresh process prints: a report, a table,
    # --version and a bad flag's usage error (exit 2).  COLUMNS fixes the
    # usage line's width on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["verify", "--family", "fano"],
        ["critical", "--family", "fano", "--json"],
        ["--version"],
        ["verify", "--family", "fano", "--sparkle"],
    ]
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    shared = []
    try:
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            shared.append((code, out, err))
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert [code for code, _, _ in shared] == [0, 0, 0, 2]
    for argv, got in zip(calls, shared):
        fresh = subprocess.run(
            [sys.executable, "-m", "hypercolor", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hypercolor", "verify", "--family", "fano"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "status: HOLDS" in proc.stdout
