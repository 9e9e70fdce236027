"""Exact coloring oracle: brackets, budgets, criticality, core extraction."""

from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from hypercolor import (
    Budget,
    Coloring,
    CriticalCore,
    Hypergraph,
    OracleResult,
    Rng,
    affine_plane,
    chromatic_index,
    complete_graph,
    criticality_report,
    fano,
    greedy_clique,
    is_proper,
    projective_plane,
    random_hypergraph,
    random_linear,
    steiner_triple,
    survey_instance,
)
from hypercolor.transforms import line_graph

from hypercolor import oracle

from brute import (
    brute_chromatic_index,
    brute_chromatic_number,
    class_colorable,
    counting_builds,
    graph_hypergraph,
    petersen,
    random_graph,
    random_hypergraph_raw,
    rebuilding_dsatur_greedy,
    recursive_component_chromatic,
    rescanning_extract_critical,
    searching_criticality_report,
    set_greedy_clique,
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
    # The chromatic number of a graph is the chromatic index of the
    # hypergraph whose line graph it is.
    assert chromatic_index(graph_hypergraph(0, []), FAST) == OracleResult(
        0, 0, Coloring(()), 0
    )
    assert chromatic_index(graph_hypergraph(1, []), FAST).exact == 1
    k4 = graph_hypergraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert chromatic_index(k4, FAST).exact == 4
    c5 = graph_hypergraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_index(c5, FAST).exact == 3
    assert chromatic_index(graph_hypergraph(*petersen()), FAST).exact == 3
    k33 = graph_hypergraph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert chromatic_index(k33, FAST).exact == 2


def test_chromatic_number_matches_brute_force():
    for seed in range(50):
        n, edges = random_graph(Rng(seed + 8000), 2, 8)
        h = graph_hypergraph(n, edges)
        res = chromatic_index(h, FAST)
        assert res.exact == brute_chromatic_number(n, edges)
        assert is_proper(h, res.witness)
        assert res.witness.q_used == res.upper


def test_lower_hint_tightens_but_never_flips_answers():
    # The lower hint is the maximum degree, which chromatic_index applies to
    # an open bracket.  At zero nodes the line graph's bracket starts at its
    # greedy clique, and the hint raises it.
    h = random_linear(12, 14, 3, 2)
    assert max(h.degrees()) == 5
    assert len(greedy_clique(line_graph(h))) == 4
    floored = chromatic_index(h, Budget(0, None))
    assert (floored.lower, floored.upper, floored.nodes) == (5, 6, 0)
    assert chromatic_index(h, FAST).exact == 5
    # Never flips: the exact answers are the true ones, at least the hint.
    for seed in range(30):
        h = random_hypergraph_raw(Rng(seed + 9100), 3, 8, 8, 1, 3)
        hinted = chromatic_index(h, FAST)
        assert hinted.exact == brute_chromatic_index(h.n, list(h.edges))
        assert hinted.lower >= max(h.degrees(), default=0)


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


def test_colour_class_search_referees_the_exact_value():
    # A search over whole colour classes, sharing nothing with the oracle,
    # must find q classes and refute q - 1 on every exact answer.
    inputs = [
        random_linear(n, m, k, seed)
        for n, m, k in ((16, 22, 3), (20, 16, 4), (12, 14, 3))
        for seed in range(20)
    ]
    inputs += [random_hypergraph(8, 9, (1, 3), seed) for seed in range(40)]
    assert any(len(e) == 1 for h in inputs for e in h.edges)
    assert any(len(set(h.edges)) < h.m for h in inputs)
    for h in inputs:
        q = chromatic_index(h, FAST).exact
        assert class_colorable(h, q) and not class_colorable(h, q - 1), h.edges


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


def test_a_clock_cut_stops_every_later_component(monkeypatch):
    # STS(15) on vertices 0-14 and K_5 on 15-19: the clock fires at the
    # first check inside STS(15), and K_5's component is not searched.
    sts = steiner_triple(15)
    k5 = [tuple(v + 15 for v in e) for e in complete_graph(5).edges]
    h = Hypergraph(20, list(sts.edges) + k5)
    readings = iter([0.0])
    monkeypatch.setattr(
        oracle, "time", SimpleNamespace(monotonic=lambda: next(readings, 10.0))
    )
    res = chromatic_index(h, Budget(10**7, 1.0))
    assert (res.lower, res.upper, res.nodes) == (7, 9, 1024)
    assert is_proper(h, res.witness)
    assert res.witness.q_used == 9


def test_search_is_deterministic_including_node_counts():
    for seed in range(20):
        h = graph_hypergraph(*random_graph(Rng(seed + 10_000), 2, 9))
        assert chromatic_index(h, FAST) == chromatic_index(h, FAST)
    h = complete_graph(5)
    assert chromatic_index(h, FAST) == chromatic_index(h, FAST)


def _disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    shifted = [[v + a.n for v in e] for e in b.edges]
    return Hypergraph(a.n + b.n, list(a.edges) + shifted)


def _linear(seed: int) -> Hypergraph:
    return survey_instance(seed, 0, (12, 18), (16, 30), (3,))[1]


def _differential_inputs():
    for seed in range(60):
        yield _linear(seed + 500)
    for seed in range(30):
        yield random_hypergraph_raw(Rng(seed + 12_000), 3, 8, 14, 1, 4)
    for seed in range(30):
        # A linear instance plus a repeated hyperedge and a loop.
        h = _linear(seed + 700)
        rng = Rng(seed + 12_500)
        extra = [h.edges[rng.below(h.m)], (rng.below(h.n),)]
        yield Hypergraph(h.n, list(h.edges) + extra)
    for seed in range(40):
        rng = Rng(seed + 13_000)
        graph = graph_hypergraph(*random_graph(rng, 3, 12, 10, 40))
        yield _disjoint_union(graph, _linear(seed + 900))
    for seed in range(40):
        yield graph_hypergraph(*random_graph(Rng(seed + 14_000), 8, 16, 30, 60))


def test_search_matches_the_recursive_reference(monkeypatch):
    searched = starved = multi = 0
    for index, h in enumerate(_differential_inputs()):
        g = line_graph(h)
        if g.n:
            assert oracle._dsatur_greedy(g) == rebuilding_dsatur_greedy(g)
        multi += len(h._components()) > 1
        for budget in (Budget(index % 51, None), FAST):
            got = chromatic_index(h, budget)
            monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
            want = chromatic_index(h, budget)
            monkeypatch.undo()
            assert got == want
            searched += got.nodes > 0
            starved += not got.complete
    assert index + 1 == 200
    assert searched >= 150 and starved >= 50 and multi >= 40


def _renumber(colors: list[int]) -> tuple[int, ...]:
    rank = {c: i + 1 for i, c in enumerate(sorted(set(colors)))}
    return tuple(rank[c] for c in colors)


def _incumbents(h: Hypergraph) -> list[Coloring]:
    """Proper colorings to start from: an optimal one, index-order first
    fit, and the optimal one with the components' colors interleaved, so
    that no component of a disconnected line graph holds 1..k."""
    g = line_graph(h)
    best = chromatic_index(h, FAST).witness.colors
    first_fit = [0] * g.n
    for v in range(g.n):
        taken = {first_fit[w] for w in g.adj[v]}
        first_fit[v] = min(c for c in range(1, g.n + 2) if c not in taken)
    comps = h._components()
    interleaved = [0] * g.n
    for j, comp in enumerate(comps):
        for v in comp:
            interleaved[v] = (best[v] - 1) * len(comps) + j + 1
    return [Coloring(best), Coloring(tuple(first_fit)), Coloring(_renumber(interleaved))]


def _seeded_inputs():
    yield from _differential_inputs()
    for seed in range(20):
        rng = Rng(seed + 15_000)
        one = graph_hypergraph(*random_graph(rng, 1, 6))
        two = graph_hypergraph(*random_graph(rng, 2, 7))
        yield _disjoint_union(_disjoint_union(one, two), _linear(seed + 950))


def test_a_seeded_search_agrees_and_never_visits_more_nodes(monkeypatch):
    spread = beaten = 0
    for index, h in enumerate(_seeded_inputs()):
        plain = chromatic_index(h, FAST)
        starts = _incumbents(h)
        for start in starts:
            seeded = chromatic_index(h, FAST, incumbent=start)
            assert seeded.exact == plain.exact
            assert seeded.nodes <= plain.nodes
            assert is_proper(h, seeded.witness)
            assert seeded.witness.q_used == seeded.upper
            beaten += seeded.nodes < plain.nodes
            budget = Budget(index % 51, None)
            got = chromatic_index(h, budget, incumbent=start)
            monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
            want = chromatic_index(h, budget, incumbent=start)
            monkeypatch.undo()
            assert got == want
        for comp in h._components():
            local = {starts[2].colors[v] for v in comp}
            spread += len(local) < max(local) - min(local) + 1
        # At every node budget the seeded bracket holds the true value and
        # lies within the unseeded one.  From plain.nodes on, both searches
        # finish, as checked above.
        for nodes in range(min(50, plain.nodes) + 1):
            start = starts[nodes % len(starts)]
            cut = chromatic_index(h, Budget(nodes, None))
            res = chromatic_index(h, Budget(nodes, None), incumbent=start)
            assert cut.lower <= res.lower <= plain.exact <= res.upper <= cut.upper
            assert res.upper <= start.q_used and res.nodes <= cut.nodes <= nodes
            assert is_proper(h, res.witness)
            assert res.witness.q_used == res.upper
    assert index + 1 == 220
    assert spread >= 40 and beaten >= 50


def test_an_incumbent_that_is_not_proper_is_refused():
    triangle = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="not a proper coloring"):
        chromatic_index(triangle, FAST, incumbent=Coloring((1, 2, 1)))
    with pytest.raises(ValueError, match="exactly the positions"):
        chromatic_index(triangle, FAST, incumbent=Coloring((1, 2)))


def test_search_depth_is_not_bound_by_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search must not change the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1201
    assert n > sys.getrecursionlimit()
    odd_cycle = graph_hypergraph(n, [(i, (i + 1) % n) for i in range(n)])
    res = chromatic_index(odd_cycle, FAST)
    assert (res.lower, res.upper) == (3, 3)
    assert is_proper(odd_cycle, res.witness)
    assert res.witness.q_used == 3


def test_hard_set_brackets_and_node_counts():
    # Deterministic counters of the benchmark's hard set, node budgets only.
    for v, budget, bracket, nodes in (
        (15, 100_000, (9, 9), 35_373),
        (21, 20_000, (10, 12), 20_000),
        (27, 16_000, (13, 16), 16_000),
    ):
        h = steiner_triple(v)
        res = chromatic_index(h, Budget(budget, None))
        assert ((res.lower, res.upper), res.nodes) == (bracket, nodes)
        assert is_proper(h, res.witness)
        assert res.witness.q_used == res.upper
    h = random_linear(40, 80, 4, 1)
    res = chromatic_index(h, Budget(10_000, None))
    assert ((res.lower, res.upper), res.nodes) == ((10, 12), 10_000)
    assert is_proper(h, res.witness)
    assert res.witness.q_used == res.upper


def test_a_component_past_the_budget_keeps_its_greedy_clique():
    # K_5 beside the Fano plane on vertices 5..11.  At 0 nodes the budget
    # runs out on K_5, whose line graph DSATUR colors with 6 > 4 colors;
    # the Fano line graph, K_7, still brings its clique, closing [7, 7].
    plane = [tuple(x + 5 for x in e) for e in fano().edges]
    h = Hypergraph(12, list(complete_graph(5).edges) + plane)
    assert not h.stats().connected
    res = chromatic_index(h, Budget(0, None))
    assert (res.lower, res.upper, res.nodes) == (7, 7, 0)
    assert is_proper(h, res.witness)


def test_greedy_clique_is_a_maximal_clique():
    for seed in range(40):
        n, edges = random_graph(Rng(seed + 11_000), 2, 9)
        g = line_graph(graph_hypergraph(n, edges))
        clique = greedy_clique(g)
        assert len(set(clique)) == len(clique)
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert v in g.adj[u]
        for v in range(g.n):
            if v not in clique:
                assert not all(u in g.adj[v] for u in clique)
        assert len(clique) <= brute_chromatic_number(n, edges)


def test_greedy_clique_matches_the_set_based_reference():
    graphs = [random_graph(Rng(seed + 13_000), 0, 14) for seed in range(300)]
    graphs += [(0, []), (6, [])]
    for n, edges in graphs:
        g = line_graph(graph_hypergraph(n, edges))
        assert greedy_clique(g) == set_greedy_clique(g)


def test_large_line_graphs_match_the_references(monkeypatch):
    # Sizes the differential set never reaches.  K17's line graph has 136
    # vertices and DSATUR colors it with 19 colors; saturations reach 18,
    # so the counter carries into its fifth plane.  PG(2,11)'s is K133.
    inputs = (complete_graph(17), steiner_triple(21), projective_plane(11))
    graphs = [line_graph(h) for h in inputs]
    assert [g.n for g in graphs] == [136, 70, 133]
    assert max(oracle._dsatur_greedy(graphs[0])) == 19
    for h, g in zip(inputs, graphs):
        assert oracle._dsatur_greedy(g) == rebuilding_dsatur_greedy(g)
        assert greedy_clique(g) == set_greedy_clique(g)
        for nodes in (0, 1, 37, 500):
            budget = Budget(nodes, None)
            got = chromatic_index(h, budget)
            monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
            want = chromatic_index(h, budget)
            monkeypatch.undo()
            assert got == want


def test_a_search_builds_each_components_bit_view_once(monkeypatch):
    # DSATUR, the greedy clique and the branch and bound share one line
    # graph, its masks, per component.
    built = counting_builds(monkeypatch, Hypergraph, "_line_graph")
    # K_5 (line graph of 10 vertices, searched) beside the Fano plane (K_7).
    plane = [tuple(x + 5 for x in e) for e in fano().edges]
    h = Hypergraph(12, list(complete_graph(5).edges) + plane)
    res = chromatic_index(h, FAST)
    assert res.exact == 7 and res.nodes > 0
    assert built == [10, 7]
    built.clear()
    assert chromatic_index(steiner_triple(15), FAST).exact == 9
    assert built == [35]


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


def test_criticality_report_extracts_a_core_only_when_asked():
    for h in (Hypergraph(4, [(0, 1), (2, 3)]), fano(), complete_graph(5)):
        for budget in (FAST, Budget(max_nodes=8, time_limit=None)):
            rep = criticality_report(h, budget)
            assert rep.core is None
            extracted = criticality_report(h, budget, extract=True)
            assert extracted.core is not None
            assert replace(extracted, core=None) == rep
    # An undecided q leaves h as an incomplete core with nothing removed.
    k5 = complete_graph(5)
    starved = criticality_report(k5, Budget(max_nodes=8, time_limit=None), extract=True)
    assert starved.core == CriticalCore(k5, False, ())


def test_extract_critical_pins():
    matching = Hypergraph(4, [(0, 1), (2, 3)])
    rep = criticality_report(matching, FAST, extract=True)
    core = rep.core
    assert core.complete
    assert rep.q == 1
    assert core.removed == (0,)
    assert core.hypergraph.edges == ((2, 3),)
    assert core.hypergraph.n == 4

    fano_rep = criticality_report(fano(), FAST, extract=True)
    fano_core = fano_rep.core
    assert fano_core.complete
    assert fano_rep.q == 7
    assert fano_core.removed == ()
    assert fano_core.hypergraph == fano()


def test_extract_critical_preserves_q_and_leaves_only_critical_edges():
    kept = 0
    for seed in range(25):
        h = random_linear(8, 6, 3, seed)
        base = chromatic_index(h, FAST)
        q = base.exact
        core = criticality_report(h, FAST, extract=True).core
        assert core.complete
        assert chromatic_index(core.hypergraph, FAST).exact == q
        assert core.hypergraph.m + len(core.removed) == h.m
        rep = criticality_report(core.hypergraph, FAST)
        assert rep.complete and len(rep.entries) == core.hypergraph.m
        for i, entry in enumerate(rep.entries):
            assert entry.critical is True
            assert q - 1 <= core.hypergraph.hyperedge_degree(i)
        kept += 1
    assert kept == 25


def test_one_pass_extraction_matches_the_rescanning_reference(monkeypatch):
    calls = []

    def counted(h, budget=FAST, incumbent=None):
        calls.append(h.m)
        return chromatic_index(h, budget, incumbent)

    compared = 0
    for seed in range(60):
        _, h = survey_instance(seed, 0, (7, 10), (5, 9), (3,))
        ref = rescanning_extract_critical(h, FAST)
        if not ref.complete:
            continue
        monkeypatch.setattr(oracle, "chromatic_index", counted)
        calls.clear()
        rep = criticality_report(h, FAST)
        table_calls = list(calls)
        calls.clear()
        core = criticality_report(h, FAST, extract=True).core
        monkeypatch.undo()
        assert calls[: len(table_calls)] == table_calls
        assert core == ref
        # Critical rows are kept and the first removable one deleted on
        # the table's word; only the other removable rows are searched.
        removable = sum(entry.critical is False for entry in rep.entries)
        assert len(calls) - len(table_calls) <= max(0, removable - 1)
        compared += 1
    assert compared >= 50


def _criticality_inputs():
    for seed in range(30):
        yield random_linear(16, 22, 3, seed)
        yield random_linear(20, 16, 4, seed)
    for seed in range(100):
        yield random_hypergraph_raw(Rng(seed + 16_000), 2, 9, 12, 1, 4)
    for seed in range(30):
        a = random_hypergraph_raw(Rng(seed + 16_500), 2, 7, 8, 1, 3)
        b = random_linear(9, 8, 3, seed)
        yield Hypergraph(a.n + b.n, list(a.edges) + [[v + a.n for v in e] for e in b.edges])
    for n in range(1, 6):
        yield Hypergraph(n, [])
        yield Hypergraph(n, [tuple(range(n))])


def _certified(h: Hypergraph, rep) -> list[tuple[bool, bool, bool]]:
    """Which proofs of the base search apply to each row of rep, by rule:
    a degree-q vertex outside e, a q-clique of the line graph without e,
    e alone in its color class of the base witness (the coloring the base
    search returns)."""
    q, colors = rep.q, chromatic_index(h, FAST).witness.colors
    clique = greedy_clique(line_graph(h))
    return [
        (
            any(len(h.incident(x)) == q and x not in h.edges[e] for x in range(h.n)),
            len(clique) == q and e not in clique,
            colors.count(colors[e]) == 1,
        )
        for e in range(h.m)
    ]


def test_certified_rows_match_the_searching_table(monkeypatch):
    fired = [0, 0, 0]
    gained = 0
    for index, h in enumerate(_criticality_inputs()):
        full = searching_criticality_report(h, FAST)
        calls = []

        def counted(g, budget=FAST, incumbent=None):
            calls.append(g.m)
            return chromatic_index(g, budget, incumbent)

        monkeypatch.setattr(oracle, "chromatic_index", counted)
        rep = criticality_report(h, FAST)
        monkeypatch.undo()
        assert rep == full
        proofs = _certified(h, rep)
        # One base search, then one per row that no proof settles.
        assert len(calls) == 1 + sum(not any(p) for p in proofs)
        for entry, p in zip(rep.entries, proofs):
            fired = [f + b for f, b in zip(fired, p)]
            if any(p[:2]):
                assert entry.q_without == rep.q
            if p[2]:
                assert entry.critical is True
        core = criticality_report(h, FAST, extract=True).core
        assert core == rescanning_extract_critical(h, FAST)
        for nodes in (20, 50, 200):
            budget = Budget(nodes, None)
            ref = searching_criticality_report(h, budget)
            got = criticality_report(h, budget, extract=True)
            assert got.q == ref.q
            for mine, theirs, want in zip(got.entries, ref.entries, full.entries):
                if theirs.critical is not None:
                    assert mine == theirs
                if mine.critical is not None:
                    assert mine == want
                gained += mine.critical is not None and theirs.critical is None
            if got.q is not None:
                assert got.lemma_ok
            partial = got.core
            if partial.complete:
                assert partial == core
            else:
                assert core.removed[: len(partial.removed)] == partial.removed
    assert index + 1 == 200
    assert min(fired) >= 1 and gained >= 1


def test_critical_core_obeys_size_adjusted_bound():
    # On a loopless core whose every edge is critical, the chromatic index
    # is at most (max two-section degree) + 1 - (min edge size - max vertex
    # degree).  The shift term rewards hypergraphs whose smallest edge is
    # larger than the largest vertex degree.
    checked = 0
    for seed in range(25):
        h = random_linear(9, 7, 3, seed + 300)
        rep = criticality_report(h, FAST, extract=True)
        core = rep.core
        assert core.complete
        ch = core.hypergraph
        st = ch.stats()
        if ch.m == 0 or not st.loopless:
            continue
        bound = st.two_section_max_degree + 1 - (st.antirank - st.max_degree)
        assert rep.q <= bound
        checked += 1
    assert checked >= 20
