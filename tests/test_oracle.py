"""Exact coloring oracle: brackets, budgets, criticality, core extraction."""

from __future__ import annotations

import sys

from hypercolor import (
    Budget,
    Coloring,
    Hypergraph,
    OracleResult,
    Rng,
    affine_plane,
    chromatic_index,
    chromatic_number,
    complete_graph,
    criticality_report,
    extract_critical,
    fano,
    greedy_clique,
    is_proper,
    is_proper_vertex_coloring,
    random_linear,
    steiner_triple,
    survey_instance,
)
from hypercolor.transforms import SimpleGraph, line_graph

from hypercolor import oracle

from brute import (
    brute_chromatic_index,
    brute_chromatic_number,
    graph_edges,
    petersen,
    random_graph,
    random_hypergraph_raw,
    rebuilding_dsatur_greedy,
    recursive_component_chromatic,
    rescanning_extract_critical,
)

FAST = Budget(max_nodes=1_000_000, time_limit=None)


def test_budget_defaults():
    b = Budget()
    assert b.max_nodes == 10_000_000
    assert b.time_limit == 30.0
    assert Budget(time_limit=None).time_limit is None


def test_result_bracket_properties():
    open_bracket = OracleResult(2, 3, Coloring((1, 2, 3)), 5)
    assert open_bracket.exact is None
    assert not open_bracket.complete
    tight = OracleResult(3, 3, Coloring((1, 2, 3)), 5)
    assert tight.exact == 3
    assert tight.complete


def test_chromatic_number_pins():
    assert chromatic_number(SimpleGraph(0, []), FAST) == OracleResult(0, 0, Coloring(()), 0)
    assert chromatic_number(SimpleGraph(1, []), FAST).exact == 1
    k4 = SimpleGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert chromatic_number(k4, FAST).exact == 4
    c5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_number(c5, FAST).exact == 3
    assert chromatic_number(petersen(), FAST).exact == 3
    k33 = SimpleGraph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert chromatic_number(k33, FAST).exact == 2


def test_chromatic_number_matches_brute_force():
    for seed in range(50):
        g = random_graph(Rng(seed + 8000), 2, 8)
        res = chromatic_number(g, FAST)
        expected = brute_chromatic_number(g.n, graph_edges(g))
        assert res.exact == expected
        assert is_proper_vertex_coloring(g, res.witness)
        assert res.witness.q_used == res.upper


def test_lower_hint_tightens_but_never_flips_answers():
    h = complete_graph(5)
    assert chromatic_index(h, FAST).exact == 5
    from hypercolor.transforms import line_graph

    lg = line_graph(h)
    starved = Budget(max_nodes=8, time_limit=None)
    plain = chromatic_number(lg, starved)
    assert plain.exact is None
    hinted = chromatic_number(lg, starved, lower_hint=5)
    assert hinted.exact is None
    assert hinted.lower == 5
    assert hinted.upper == plain.upper
    assert chromatic_number(lg, FAST, lower_hint=5).exact == 5


def test_chromatic_index_pins():
    assert chromatic_index(fano(), FAST).exact == 7
    assert chromatic_index(affine_plane(3), FAST).exact == 4
    path = Hypergraph(3, [(0, 1), (1, 2)])
    assert chromatic_index(path, FAST).exact == 2
    assert chromatic_index(Hypergraph(3, []), FAST) == OracleResult(0, 0, Coloring(()), 0)
    loops = Hypergraph(1, [(0,), (0,)])
    assert chromatic_index(loops, FAST).exact == 2


def test_chromatic_index_matches_brute_force():
    for seed in range(50):
        h = random_hypergraph_raw(Rng(seed + 9000), 3, 8, 8, 1, 3)
        res = chromatic_index(h, FAST)
        expected = brute_chromatic_index(h.n, list(h.edges))
        assert res.exact == expected
        assert is_proper(h, res.witness)
        assert res.witness.q_used == res.upper


def test_starved_search_reports_honest_bracket():
    h = complete_graph(5)
    exact = chromatic_index(h, FAST)
    assert exact.exact == 5
    starved = chromatic_index(h, Budget(max_nodes=8, time_limit=None))
    assert starved.exact is None
    assert starved.lower <= 5 <= starved.upper
    assert is_proper(h, starved.witness)
    assert starved.witness.q_used == starved.upper
    bigger = chromatic_index(h, Budget(max_nodes=10_000_000, time_limit=None))
    assert bigger.exact == 5


def test_search_is_deterministic_including_node_counts():
    for seed in range(20):
        g = random_graph(Rng(seed + 10_000), 2, 9)
        assert chromatic_number(g, FAST) == chromatic_number(g, FAST)
    h = complete_graph(5)
    assert chromatic_index(h, FAST) == chromatic_index(h, FAST)


def _disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    edges = graph_edges(a) + [(u + a.n, v + a.n) for u, v in graph_edges(b)]
    return SimpleGraph(a.n + b.n, edges)


def _linear(seed: int) -> Hypergraph:
    return survey_instance(seed, 0, (12, 18), (16, 30), (3,))[1]


def _differential_graphs():
    for seed in range(60):
        yield line_graph(_linear(seed + 500))
    for seed in range(30):
        yield line_graph(random_hypergraph_raw(Rng(seed + 12_000), 3, 8, 14, 1, 4))
    for seed in range(30):
        # A linear instance plus a repeated hyperedge and a loop.
        h = _linear(seed + 700)
        rng = Rng(seed + 12_500)
        extra = [h.edges[rng.below(h.m)], (rng.below(h.n),)]
        yield line_graph(Hypergraph(h.n, list(h.edges) + extra))
    for seed in range(40):
        rng = Rng(seed + 13_000)
        yield _disjoint_union(random_graph(rng, 3, 12, 10, 40), line_graph(_linear(seed + 900)))
    for seed in range(40):
        yield random_graph(Rng(seed + 14_000), 8, 16, 30, 60)


def test_search_matches_the_recursive_reference(monkeypatch):
    searched = starved = multi = 0
    for index, g in enumerate(_differential_graphs()):
        if g.n:
            assert oracle._dsatur_greedy(g) == rebuilding_dsatur_greedy(g)
        multi += len(g.connected_components()) > 1
        for budget in (Budget(index % 51, None), FAST):
            got = chromatic_number(g, budget)
            monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
            want = chromatic_number(g, budget)
            monkeypatch.undo()
            assert got == want
            searched += got.nodes > 0
            starved += not got.complete
    assert index + 1 == 200
    assert searched >= 150 and starved >= 50 and multi >= 40


def test_search_depth_is_not_bound_by_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1201
    assert n > sys.getrecursionlimit()
    odd_cycle = SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])
    res = chromatic_number(odd_cycle, FAST)
    assert (res.lower, res.upper) == (3, 3)
    assert is_proper_vertex_coloring(odd_cycle, res.witness)
    assert res.witness.q_used == 3


def test_hard_set_brackets_and_node_counts():
    # Deterministic counters of the benchmark's hard set, node budgets only.
    for v, budget, bracket, nodes in (
        (15, 100_000, (9, 9), 35_373),
        (21, 20_000, (10, 12), 20_001),
        (27, 16_000, (13, 16), 16_001),
    ):
        h = steiner_triple(v)
        res = chromatic_index(h, Budget(budget, None))
        assert ((res.lower, res.upper), res.nodes) == (bracket, nodes)
        assert is_proper(h, res.witness)
        assert res.witness.q_used == res.upper
    h = random_linear(40, 80, 4, 1)
    res = chromatic_index(h, Budget(10_000, None))
    assert ((res.lower, res.upper), res.nodes) == ((10, 12), 10_001)
    assert is_proper(h, res.witness)
    assert res.witness.q_used == res.upper


def test_greedy_clique_is_a_maximal_clique():
    for seed in range(40):
        g = random_graph(Rng(seed + 11_000), 2, 9)
        clique = greedy_clique(g)
        assert len(set(clique)) == len(clique)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert g.has_edge(u, v)
        for v in range(g.n):
            if v not in clique:
                assert not all(g.has_edge(v, u) for u in clique)
        assert len(clique) <= brute_chromatic_number(g.n, graph_edges(g))


def _critical_flags(h: Hypergraph, budget: Budget) -> list:
    return [e.critical for e in criticality_report(h, budget).entries]


def test_criticality_report_pins():
    path = Hypergraph(3, [(0, 1), (1, 2)])
    assert _critical_flags(path, FAST) == [True, True]
    triangle = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert _critical_flags(triangle, FAST) == [True, True, True]
    matching = Hypergraph(4, [(0, 1), (2, 3)])
    assert _critical_flags(matching, FAST)[0] is False
    # Undecided within the budget: no row is claimed either way.
    starved = Budget(max_nodes=8, time_limit=None)
    rep = criticality_report(complete_graph(5), starved)
    assert not rep.complete and rep.entries == ()


def test_criticality_report_on_small_instances():
    path = Hypergraph(3, [(0, 1), (1, 2)])
    rep = criticality_report(path, FAST)
    assert rep.q == 2
    assert rep.complete
    assert rep.lemma_ok
    assert [e.position for e in rep.entries] == [0, 1]
    assert all(e.critical for e in rep.entries)
    assert all(e.degree == 1 for e in rep.entries)
    assert all(e.q_without == 1 for e in rep.entries)

    fano_rep = criticality_report(fano(), FAST)
    assert fano_rep.q == 7
    assert fano_rep.complete
    assert fano_rep.lemma_ok
    assert all(e.critical and e.degree == 6 for e in fano_rep.entries)


def test_criticality_report_respects_budget():
    rep = criticality_report(complete_graph(5), Budget(max_nodes=8, time_limit=None))
    assert rep.q is None
    assert rep.entries == ()
    assert not rep.complete
    assert rep.lemma_ok


def test_extract_critical_pins():
    matching = Hypergraph(4, [(0, 1), (2, 3)])
    core = extract_critical(matching, criticality_report(matching, FAST), FAST)
    assert core.complete
    assert core.q == 1
    assert core.removed == (0,)
    assert core.hypergraph.edges == ((2, 3),)
    assert core.hypergraph.n == 4

    fano_core = extract_critical(fano(), criticality_report(fano(), FAST), FAST)
    assert fano_core.complete
    assert fano_core.q == 7
    assert fano_core.removed == ()
    assert fano_core.hypergraph == fano()


def test_extract_critical_preserves_q_and_leaves_only_critical_edges():
    kept = 0
    for seed in range(25):
        h = random_linear(8, 6, 3, seed)
        base = chromatic_index(h, FAST)
        core = extract_critical(h, criticality_report(h, FAST), FAST)
        assert core.complete
        assert core.q == base.exact
        assert chromatic_index(core.hypergraph, FAST).exact == core.q
        assert core.hypergraph.m + len(core.removed) == h.m
        rep = criticality_report(core.hypergraph, FAST)
        assert rep.complete and len(rep.entries) == core.hypergraph.m
        for i, entry in enumerate(rep.entries):
            assert entry.critical is True
            assert core.q - 1 <= core.hypergraph.hyperedge_degree(i)
        kept += 1
    assert kept == 25


def test_one_pass_extraction_matches_the_rescanning_reference(monkeypatch):
    calls = []

    def counted(h, budget=FAST):
        calls.append(h.m)
        return chromatic_index(h, budget)

    compared = 0
    for seed in range(60):
        _, h = survey_instance(seed, 0, (7, 10), (5, 9), (3,))
        ref = rescanning_extract_critical(h, FAST)
        if not ref.complete:
            continue
        rep = criticality_report(h, FAST)
        calls.clear()
        monkeypatch.setattr(oracle, "chromatic_index", counted)
        core = extract_critical(h, rep, FAST)
        monkeypatch.undo()
        assert (core.hypergraph, core.q, core.complete, core.removed) == (
            ref.hypergraph,
            ref.q,
            ref.complete,
            ref.removed,
        )
        # Critical rows are kept and the first removable one deleted on
        # the table's word; only the other removable rows are searched.
        removable = sum(entry.critical is False for entry in rep.entries)
        assert len(calls) <= max(0, removable - 1)
        compared += 1
    assert compared >= 50


def test_critical_core_obeys_size_adjusted_bound():
    # On a loopless core whose every edge is critical, the chromatic index
    # is at most (max two-section degree) + 1 - (min edge size - max vertex
    # degree).  The shift term rewards hypergraphs whose smallest edge is
    # larger than the largest vertex degree.
    checked = 0
    for seed in range(25):
        h = random_linear(9, 7, 3, seed + 300)
        core = extract_critical(h, criticality_report(h, FAST), FAST)
        assert core.complete
        ch = core.hypergraph
        st = ch.stats()
        if ch.m == 0 or not st.loopless:
            continue
        bound = st.two_section_max_degree + 1 - (st.antirank - st.max_degree)
        assert core.q <= bound
        checked += 1
    assert checked >= 20
