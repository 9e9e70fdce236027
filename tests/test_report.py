"""Report rendering: deterministic text and JSON with input digests."""

from __future__ import annotations

import json

from hypercolor import (
    Budget,
    Hypergraph,
    criticality_report,
    digest,
    fano,
    greedy_color,
    inequality_suite,
    verify_conjecture,
)
from hypercolor.report import (
    TOOL_VERSION,
    coloring_json,
    criticality_json,
    render_coloring,
    render_criticality,
    render_inequalities,
    render_stats,
    render_verdict,
    stats_json,
    verdict_dict,
    verdict_json,
)

FAST = Budget(max_nodes=1_000_000, time_limit=None)


def test_stats_report_header_and_fields():
    text = render_stats(fano())
    lines = text.splitlines()
    assert lines[0] == f"tool: hypercolor {TOOL_VERSION}"
    assert lines[1] == f"input-sha256: {digest(fano())}"
    assert "n: 7" in lines
    assert "two-section-max-degree: 6" in lines
    assert "uniform-k: 3" in lines
    assert text == render_stats(fano())


def test_text_keys_follow_the_stats_and_bound_fields():
    # Text reports list every stats and bound field, under hyphenated keys.
    v = verify_conjecture(fano(), FAST)
    payload = verdict_dict(v)
    stats_keys = [name.replace("_", "-") for name in payload["stats"]]
    bound_keys = ["bound-" + name.replace("_", "-") for name in payload["bounds"]]
    lines = render_verdict(fano(), v).splitlines()[2 : 2 + len(stats_keys) + len(bound_keys)]
    assert [line.split(": ")[0] for line in lines] == stats_keys + bound_keys
    assert render_stats(fano()).splitlines()[2:] == lines[: len(stats_keys)]


def test_stats_json_round_trip():
    payload = json.loads(stats_json(fano()))
    assert payload["tool"] == f"hypercolor {TOOL_VERSION}"
    assert payload["input_sha256"] == digest(fano())
    assert payload["stats"]["n"] == 7
    assert payload["stats"]["two_section_max_degree"] == 6
    assert payload["stats"]["rank"] == 3


def test_none_values_render_as_none():
    empty = Hypergraph(3, [])
    text = render_stats(empty)
    assert "rank: none" in text
    assert "antirank: none" in text
    assert json.loads(stats_json(empty))["stats"]["rank"] is None


def test_coloring_reports():
    c = greedy_color(fano())
    text = render_coloring(fano(), c, "greedy")
    assert f"input-sha256: {digest(fano())}" in text
    assert f"colors-used: {c.q_used}" in text
    witness_line = next(
        line for line in text.splitlines() if line.startswith("witness: ")
    )
    assert witness_line.split(": ")[1].split() == [
        str(c.colors[i]) for i in range(7)
    ]
    payload = json.loads(coloring_json(fano(), c, "greedy"))
    assert payload["method"] == "greedy"
    assert payload["colors"] == [c.colors[i] for i in range(7)]

    empty = Hypergraph(2, [])
    none_colored = greedy_color(empty)
    assert "witness: empty" in render_coloring(empty, none_colored, "greedy")


def test_verdict_report_text_and_json():
    v = verify_conjecture(fano(), FAST)
    text = render_verdict(fano(), v)
    assert "bound-two-section: 7" in text
    assert "bound-greedy: 7" in text
    assert "bound-rank-degree: 7" in text
    assert "bound-edge-degree: 7" in text
    assert "conditions: RK61 RK62 THM1 THM3 U65_2 U65_4" in text
    assert "q-exact: 7" in text
    assert "status: HOLDS" in text
    assert "efl-within-vertex-count: yes" in text
    assert text == render_verdict(fano(), v)

    payload = json.loads(verdict_json(fano(), v))
    assert payload["status"] == "HOLDS"
    assert payload["bounds"] == {
        "two_section": 7,
        "greedy": 7,
        "rank_degree": 7,
        "edge_degree": 7,
    }
    assert payload["conditions"] == ["RK61", "RK62", "THM1", "THM3", "U65_2", "U65_4"]
    assert payload["witness"] == [v.witness.colors[i] for i in range(7)]
    assert payload["q_exact"] == 7



def test_inequality_rendering():
    lines = render_inequalities(inequality_suite(fano()))
    assert len(lines) == 3
    assert lines[0].startswith("check two-section-degree-floor: checked ok")
    assert lines[2].startswith("check uniform-regular-count: skipped ok")
    empty_lines = render_inequalities(inequality_suite(Hypergraph(2, [])))
    assert all("skipped" in line for line in empty_lines)


def test_criticality_reports():
    path = Hypergraph(3, [(0, 1), (1, 2)])
    rep = criticality_report(path, FAST, extract=True)
    text = render_criticality(path, rep)
    assert "q-exact: 2" in text
    assert "hyperedge 0: degree 1 q-without 1 critical yes" in text
    assert "hyperedge 1: degree 1 q-without 1 critical yes" in text
    assert "degree-dominates-q-minus-one: yes" in text
    assert "core-removed-positions: none" in text
    assert "core-m: 2" in text

    payload = json.loads(criticality_json(path, rep))
    assert payload["q_exact"] == 2
    assert payload["degree_dominates_q_minus_one"] is True
    assert payload["core"]["edges"] == [[0, 1], [1, 2]]
    assert payload["core"]["removed_positions"] == []

    table = criticality_report(path, FAST)
    no_core = json.loads(criticality_json(path, table))
    assert "core" not in no_core
    assert "core-m" not in render_criticality(path, table)
