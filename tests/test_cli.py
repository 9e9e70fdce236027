"""Command line behavior: inputs, subcommands, exit codes, parallel surveys."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from hypercolor import (
    Budget,
    CriticalCore,
    FamilySpec,
    brooks_edge_color,
    chromatic_index,
    criticality_report,
    extract_critical,
    fano,
    generate,
    greedy_clique,
    greedy_color,
    line_graph,
    parse_family,
    random_linear,
    serialize_hgr,
    verify_conjecture,
)
from hypercolor import analysis, coloring, oracle
from hypercolor.cli import main
from hypercolor.report import (
    TOOL_VERSION,
    render_criticality,
    render_stats,
    render_verdict,
)

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


def test_gen_seed_override_rules(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "random-linear:n=8,m=5,k=3", "--seed", "7"
    )
    assert code == 0
    assert out == serialize_hgr(random_linear(8, 5, 3, 7))

    code, out, _ = run_cli(capsys, "gen", "--family", "random:n=6,m=4", "--seed", "3")
    assert code == 0
    assert out == serialize_hgr(generate(FamilySpec("random", n=6, m=4, seed=3)))

    for family in ("fano", "cycle:5"):
        code, _, err = run_cli(capsys, "gen", "--family", family, "--seed", "7")
        assert code == 2
        assert f"--seed does not apply to {family.split(':')[0]}" in err


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

    code, out, err = run_cli(
        capsys,
        "color",
        "--family",
        "complete-graph:5",
        "--method",
        "exact",
        "--budget",
        "8",
        "--time-limit",
        "0",
    )
    assert code == 4
    assert "budget exhausted" in err
    assert "colors-used: 6" in out

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
    assert code == 4
    assert "status: UNRESOLVED" in out

    code, out, _ = run_cli(
        capsys, "verify", "--family", "complete-graph:5", "--no-exact"
    )
    assert code == 4
    assert "q-lower: 4" in out
    assert "q-upper: 6" in out


def test_verify_no_exact_builds_the_line_graph_once(capsys, monkeypatch):
    calls = []

    def counted(h):
        calls.append(h.m)
        return line_graph(h)

    for family in ("fano", "steiner-triple:15"):
        h = generate(parse_family(family))
        # The bracket as separate builds for each colorer and the clique give it.
        witness = min([greedy_color(h), brooks_edge_color(h)], key=lambda c: c.q_used)
        q_lower = max(len(greedy_clique(line_graph(h))), h.stats().max_degree)
        calls.clear()
        monkeypatch.setattr(analysis, "line_graph", counted)
        monkeypatch.setattr(coloring, "line_graph", counted)
        code, out, _ = run_cli(capsys, "verify", "--family", family, "--no-exact")
        monkeypatch.undo()
        assert calls == [h.m]
        verdict = verify_conjecture(h, use_exact=False)
        assert (verdict.witness, verdict.q_lower, verdict.q_upper) == (
            witness,
            q_lower,
            witness.q_used,
        )
        assert out == render_verdict(h, verdict)
        assert code == 0


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


def test_budget_env_fallback_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCOLOR_MAX_NODES", "8")
    monkeypatch.setenv("HYPERCOLOR_TIME_LIMIT", "0")
    code, out, _ = run_cli(capsys, "verify", "--family", "complete-graph:5")
    assert code == 4
    code, out, _ = run_cli(
        capsys, "verify", "--family", "complete-graph:5", "--budget", "1000000"
    )
    assert code == 0
    assert "status: HOLDS" in out

    monkeypatch.setenv("HYPERCOLOR_MAX_NODES", "many")
    code, _, err = run_cli(capsys, "verify", "--family", "complete-graph:5")
    assert code == 2
    assert "HYPERCOLOR_MAX_NODES" in err


@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["verify", "--family", "fano", "--budget", "-5"], {}, "--budget"),
        (["verify", "--family", "fano", "--time-limit", "-1"], {}, "--time-limit"),
        (["verify", "--family", "fano", "--time-limit", "nan"], {}, "--time-limit"),
        (["survey", "--count", "2", "--jobs", "0"], {}, "--jobs"),
        (["verify", "--family", "fano"], {"HYPERCOLOR_MAX_NODES": "many"},
         "HYPERCOLOR_MAX_NODES"),
        (["verify", "--family", "fano"], {"HYPERCOLOR_MAX_NODES": "-3"},
         "HYPERCOLOR_MAX_NODES"),
        (["critical", "--family", "fano"], {"HYPERCOLOR_TIME_LIMIT": "soon"},
         "HYPERCOLOR_TIME_LIMIT"),
        (["verify", "--family", "fano"], {"HYPERCOLOR_TIME_LIMIT": "-0.5"},
         "HYPERCOLOR_TIME_LIMIT"),
    ],
)
def test_budget_inputs_are_validated(capsys, monkeypatch, argv, env, named):
    monkeypatch.delenv("HYPERCOLOR_MAX_NODES", raising=False)
    monkeypatch.delenv("HYPERCOLOR_TIME_LIMIT", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err


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
        "complete-graph:5",
        "--budget",
        "8",
        "--time-limit",
        "0",
    )
    assert code == 4
    assert "q-exact: none" in out


def test_critical_computes_the_base_q_once(capsys, monkeypatch):
    # A decided base q whose table flags are F,F,F,F,T,T, then one the
    # budget leaves undecided.
    cases = [
        ("random-linear:n=8,m=6,k=3,seed=1", Budget(1_000_000, None), 0),
        ("complete-graph:5", Budget(8, None), 4),
    ]
    expected = {}
    for family, budget, _ in cases:
        h = generate(parse_family(family))
        rep = criticality_report(h, budget)
        expected[family] = render_criticality(h, rep, extract_critical(h, rep, budget))
    calls = []

    def counted(g, budget):
        calls.append(g.m)
        return chromatic_index(g, budget)

    monkeypatch.setattr(oracle, "chromatic_index", counted)
    for family, budget, exit_code in cases:
        m = generate(parse_family(family)).m
        calls.clear()
        code, out, _ = run_cli(
            capsys, "critical", "--family", family,
            "--budget", str(budget.max_nodes), "--time-limit", "0",
        )
        assert code == exit_code
        assert out == expected[family]
        assert calls.count(m) == 1
        if exit_code == 0:
            # One base call and one per row of the table.  Extraction keeps
            # the two critical rows and deletes the first removable one on
            # the table's word, so it searches only the other three.
            assert len(calls) == 1 + m + 3
        else:
            assert calls == [m]


def test_critical_extraction_keeps_table_proven_rows_under_a_small_budget(capsys):
    # The table decides every row but 5 within 20 nodes.  Re-searching a
    # row it proved critical used to run out of budget and leave the core
    # incomplete; now the core is the default-budget one.
    family = "random-linear:n=12,m=14,k=3,seed=14"
    h = generate(parse_family(family))
    budget = Budget(20, None)
    rep = criticality_report(h, budget)
    assert [e.position for e in rep.entries if e.critical is None] == [5]
    core = extract_critical(h, rep, budget)
    assert core == extract_critical(h, criticality_report(h, Budget(time_limit=None)))
    assert core.complete and core.removed == (3, 8, 9) and core.hypergraph.m == 11
    code, out, _ = run_cli(
        capsys, "critical", "--family", family, "--budget", "20", "--time-limit", "0"
    )
    assert code == 4
    assert out == render_criticality(h, rep, core)


def test_critical_extraction_searches_the_rows_the_table_left_open():
    # q is known but rows 12 and 13 are undecided within 50 nodes; after
    # the first deletion both are searched on smaller hypergraphs, which
    # settles them (12 removable, 13 critical).
    h = generate(parse_family("random-linear:n=16,m=22,k=3,seed=1"))
    budget = Budget(50, None)
    rep = criticality_report(h, budget)
    assert rep.q == 6
    assert [e.position for e in rep.entries if e.critical is None] == [12, 13]
    core = extract_critical(h, rep, budget)
    full = extract_critical(h, criticality_report(h, Budget(time_limit=None)))
    assert core == full
    assert core.complete and 12 in core.removed and 13 not in core.removed


def test_critical_extraction_stops_at_a_row_the_table_left_open(capsys, monkeypatch):
    # Row 0 is undecided within 20 nodes.  Before any deletion its candidate
    # is the one the table ran out of budget on, so extraction stops there,
    # incomplete, without searching it again.
    family = "random-linear:n=12,m=14,k=3,seed=24"
    h = generate(parse_family(family))
    budget = Budget(20, None)
    rep = criticality_report(h, budget)
    assert rep.q == 6 and rep.entries[0].critical is None
    calls = []

    def counted(g, budget):
        calls.append(g.m)
        return chromatic_index(g, budget)

    monkeypatch.setattr(oracle, "chromatic_index", counted)
    core = extract_critical(h, rep, budget)
    monkeypatch.undo()
    assert calls == []
    assert core == CriticalCore(h, 6, False, ())
    code, out, _ = run_cli(
        capsys, "critical", "--family", family, "--budget", "20", "--time-limit", "0"
    )
    assert code == 4
    assert out == render_criticality(h, rep, core)


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
SURVEY_DIGESTS = [
    ((), "de104492f0c21286cefde20bd67dae3e26ca1de3f13bc10235bc14523d0f4b1f"),
    (("--json",), "2751fc3bcc8873e46f34992e3b956c82dd963b12d2b4f7150fe9cf9d91c25d4d"),
]


def test_survey_reports_are_pinned_byte_for_byte(capsys):
    for extra, expected in SURVEY_DIGESTS:
        code, out, _ = run_cli(
            capsys, "survey", "--count", "100", "--seed", "7", "--time-limit", "0", *extra
        )
        assert code == 0, extra
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected, extra


def test_gen_reports_an_unplaceable_edge_as_before(capsys):
    # Exit code and stderr as recorded with the rejection form of the
    # generator, which spent its whole retry cap on this edge.
    code, out, err = run_cli(capsys, "gen", "--family", "random-linear:n=4,m=100,k=2")
    assert code == 2
    assert out == ""
    assert err == "error: could not place edge 7 of 100 (n=4, k=2): retry cap hit\n"


def test_survey_range_syntax_and_validation(capsys):
    code, out, _ = run_cli(
        capsys,
        "survey",
        "--count",
        "2",
        "--seed",
        "1",
        "--n-range",
        "6:8",
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


def test_argparse_level_failures_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["survey"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err2:
        main(["color", "--family", "fano", "--method", "sparkle"])
    assert err2.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert f"hypercolor {TOOL_VERSION}" in capsys.readouterr().out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hypercolor", "verify", "--family", "fano"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "status: HOLDS" in proc.stdout
