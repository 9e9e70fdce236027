"""Exact coloring oracle: brackets, budgets, criticality, core extraction."""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import cache, reduce
from itertools import chain, combinations, combinations_with_replacement

import pytest

from hypercolor import (
    Budget,
    Coloring,
    CriticalCore,
    Hypergraph,
    OracleResult,
    Rng,
    affine_plane,
    bound_set,
    chromatic_index,
    complete_graph,
    conditions,
    cycle,
    criticality_report,
    fano,
    greedy_clique,
    inequality_suite,
    is_proper,
    parse_hgr,
    projective_plane,
    random_hypergraph,
    random_linear,
    serialize_hgr,
    steiner_triple,
    survey_instance,
    vizing_edge_color,
)
from hypercolor.transforms import _component_masks, _ranks, line_graph

from hypercolor import oracle

from brute import (
    brute_chromatic_index,
    brute_chromatic_number,
    class_colorable,
    counted_edge_degrees,
    counted_inequality_suite,
    counting_builds,
    counting_searches,
    graph_hypergraph,
    if_chain_conditions,
    petersen,
    random_graph,
    random_hypergraph_raw,
    rebuilding_dsatur_greedy,
    recursive_component_chromatic,
    rescanning_extract_critical,
    restarting_survey_instance,
    searching_criticality_report,
    set_greedy_clique,
)

FAST = Budget(max_nodes=1_000_000)
# The drop search's nodes over the tables of test_drop_search_nodes_are_pinned.
DROP_NODES = 8_272


def test_budget_defaults():
    # The node count is the one bound: no clock makes a result depend on
    # the machine.
    assert [f.name for f in fields(Budget)] == ["max_nodes"]
    assert Budget().max_nodes == 10_000_000


def test_a_budget_the_search_cannot_honour_is_refused():
    # 1.5 nodes let a search visit 2, nan nodes never cut it, and -1 nodes
    # ran the TabuCol pass that 0 nodes skips.
    for bad in (1.5, float("nan"), -1, True, "10", None):
        with pytest.raises(ValueError, match="max_nodes"):
            Budget(bad)
    for nodes in (0, 5, 10**12):
        assert Budget(nodes).max_nodes == nodes
    with pytest.raises(ValueError, match="max_nodes"):
        replace(FAST, max_nodes=-1)


def test_a_target_that_is_not_an_int_is_refused(monkeypatch):
    # 8.5 failed inside the search, which reported an internal failure as
    # bad input, and 1.5 and True were answered as numbers of colors.
    def searching(*args):
        raise AssertionError("searched before refusing the target")

    monkeypatch.setattr(oracle, "_component_chromatic", searching)
    h = steiner_triple(15)
    for bad in (8.5, 1.5, 9.0, True, False, "9"):
        with pytest.raises(ValueError, match=repr(bad)):
            chromatic_index(h, FAST, target=bad)
    monkeypatch.undo()
    assert chromatic_index(h, FAST, target=8).lower == 9


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
    floored = chromatic_index(h, Budget(0))
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
    # The Petersen graph is class 2: q = 4 above its clique and counting
    # floor of 3, so no coloring closes the bracket that a cut search
    # leaves.
    h = Hypergraph(*petersen())
    exact = chromatic_index(h, FAST)
    assert exact.exact == 4
    starved = chromatic_index(h, Budget(max_nodes=8))
    assert starved.exact is None
    assert starved.lower <= 4 <= starved.upper
    assert is_proper(h, starved.witness)
    assert starved.witness.q_used == starved.upper
    bigger = chromatic_index(h, Budget(max_nodes=10_000_000))
    assert bigger.exact == 4


def test_the_components_share_one_node_count():
    # K_7 takes 257 nodes and each Petersen graph after it 27, and every
    # component counts on from the ones before it: the call is exact at
    # 257 + 30 * 27 nodes, and a budget of 1024 cuts inside the 29th
    # Petersen graph (257 + 28 * 27 = 1013 falls short), not at 1024 of
    # one component's own count.  K_7 still settles q.
    n, edges = petersen()
    copies = [tuple(x + 7 + n * k for x in e) for k in range(30) for e in edges]
    union = Hypergraph(7 + 30 * n, list(complete_graph(7).edges) + copies)
    for budget, nodes in ((FAST, 257 + 30 * 27), (Budget(257 + 30 * 27), 257 + 30 * 27),
                          (Budget(1024), 1024)):
        res = chromatic_index(union, budget)
        assert (res.exact, res.nodes) == (7, nodes)
        assert is_proper(union, res.witness)


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
    # The restart rule keeps these inputs, and the floors they meet, as
    # they were when the floors were set.
    return restarting_survey_instance(seed, 0, (12, 18), (16, 30), (3,))[1]


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


def _dsatur(g, active: int) -> tuple[list[int], int]:
    """The oracle's DSATUR coloring of active by vertex, 0 off it, and its
    color count."""
    colors = [0] * g.n
    return colors, oracle._dsatur_greedy(g, active, colors)


def _masked_calls(h: Hypergraph, rng: Rng):
    """(without, target) option sets for h: none, a target alone, and
    random positions left out with and without a target, the targets at
    and around the chromatic index."""
    yield {}
    q = chromatic_index(h, FAST).upper
    yield {"target": max(q - 1, 0)}
    for _ in range(2):
        gone = {p for p in range(h.m) if rng.below(4) == 0}
        yield {"without": gone}
        yield {"without": gone, "target": max(q - 1 - rng.below(2), 0)}


def test_search_matches_the_recursive_reference(monkeypatch):
    searched = starved = multi = masked = targeted = dropped = 0
    searching = oracle._component_chromatic

    def counting_drops(g, edges, active, state, target, colors):
        # A best at least 2 below DSATUR's count.  Without a target, such a
        # search has lowered its ceiling under colors that frames on its
        # stack already use, so it backs through frames whose entry lies
        # above the ceiling.
        nonlocal dropped
        lower, upper = searching(g, edges, active, state, target, colors)
        dropped += upper <= _dsatur(g, active)[1] - 2
        return lower, upper

    for index, h in enumerate(_differential_inputs()):
        g = line_graph(h)
        full = (1 << g.n) - 1
        if g.n:
            want = rebuilding_dsatur_greedy(g)
            assert _dsatur(g, full) == (want, max(want))
            inner = full ^ 1 << (index % g.n)
            if inner:
                want = rebuilding_dsatur_greedy(g, inner)
                assert _dsatur(g, inner) == (want, max(want))
        multi += len(_component_masks(g, full)) > 1
        rng = Rng(index + 19_000)
        for options in _masked_calls(h, rng):
            for budget in (Budget(index % 51), FAST):
                monkeypatch.setattr(oracle, "_component_chromatic", counting_drops)
                got = chromatic_index(h, budget, **options)
                monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
                want = chromatic_index(h, budget, **options)
                monkeypatch.undo()
                assert got == want, options
                searched += got.nodes > 0
                starved += not got.complete
                masked += bool(options.get("without")) and got.nodes > 0
                targeted += "target" in options and got.nodes > 0
    assert index + 1 == 200
    assert searched >= 600 and starved >= 300 and multi >= 40
    assert masked >= 300 and targeted >= 250 and dropped >= 20


def _left_out_inputs():
    for seed in range(50):
        yield random_linear(14, 14 + seed % 5, 3, seed)
    for seed in range(80):
        # Loops and duplicate edges.
        yield random_hypergraph_raw(Rng(seed + 19_500), 4, 10, 16, 1, 4)
    for seed in range(50):
        a = random_hypergraph_raw(Rng(seed + 20_000), 3, 7, 8, 1, 3)
        yield _disjoint_union(a, random_linear(12, 12, 3, seed))
    for n in range(1, 11):
        yield Hypergraph(n, [])
        yield Hypergraph(n, [tuple(range(0, n, 2))])


def test_left_out_positions_and_targets_match_brute_force():
    # h.without(S) searched as masks on h's one line graph, with and
    # without a target: every budget gives an honest bracket and a proper
    # witness, and the full budget settles the target.
    searched = settled_above = settled_below = 0
    for index, h in enumerate(_left_out_inputs()):
        rng = Rng(index + 21_000)
        for _ in range(2):
            gone = {p for p in range(h.m) if rng.below(3) == 0}
            sub = h.without(gone)
            q = brute_chromatic_index(sub.n, list(sub.edges))
            for target in (None, max(q - 1 + rng.below(3) - rng.below(2), 0)):
                for nodes in [*range(51), 10**6]:
                    res = chromatic_index(h, Budget(nodes), without=gone, target=target)
                    assert res.lower <= q <= res.upper, (index, gone, target, nodes)
                    assert len(res.witness.colors) == sub.m
                    assert is_proper(sub, res.witness)
                    assert set(res.witness.colors) == set(range(1, res.upper + 1))
                    searched += res.nodes > 0
                if target is None:
                    assert res.exact == q == chromatic_index(sub, FAST).exact
                else:
                    assert res.upper <= target or res.lower > target
                    settled_below += res.upper <= target < q + 1
                    settled_above += res.lower > target
    assert index + 1 == 200
    assert searched >= 4000 and settled_below >= 120 and settled_above >= 160


def test_a_larger_budget_never_widens_the_bracket():
    # The search is one deterministic sequence of nodes, and a budget cuts
    # it: more nodes can only raise the lower end, lower the upper end and
    # keep an exact value.
    narrowed = 0
    for h in _differential_inputs():
        last = None
        for budget in [*(Budget(nodes) for nodes in range(61)), FAST]:
            res = chromatic_index(h, budget)
            if last is not None:
                assert last.lower <= res.lower <= res.upper <= last.upper
                assert last.exact in (None, res.exact)
                narrowed += (res.lower, res.upper) != (last.lower, last.upper)
            last = res
        assert last.complete
    assert narrowed >= 100
    # STS(21), whose search no budget here finishes: the TabuCol pass
    # gives every positive budget its 12 colors, and no budget loses them.
    h = steiner_triple(21)
    brackets = []
    for nodes in (0, 1, 37, 1_000, 5_000, 20_000, 40_000):
        res = chromatic_index(h, Budget(nodes))
        assert is_proper(h, res.witness) and res.witness.q_used == res.upper
        brackets.append((res.lower, res.upper))
    assert brackets == [(10, 15)] + [(10, 12)] * 6


def _small_multisets(n: int, most: int):
    """Every multiset of non-empty hyperedges on n vertices with at most
    `most` members, each in one order."""
    subsets = [s for k in range(1, n + 1) for s in combinations(range(n), k)]
    for m in range(most + 1):
        for edges in combinations_with_replacement(subsets, m):
            yield Hypergraph(n, edges)


def _assert_honest_brackets(h: Hypergraph) -> None:
    """Each budget gives an honest bracket, a proper witness with the
    palette 1..upper and at most its nodes, and a larger budget never
    widens it; the largest closes it."""
    q = brute_chromatic_index(h.n, list(h.edges))
    last = None
    for budget in (Budget(nodes) for nodes in (0, 1, 2, 3, 10**6)):
        res = chromatic_index(h, budget)
        assert res.lower <= q <= res.upper, (h.edges, budget)
        assert res.nodes <= budget.max_nodes
        assert is_proper(h, res.witness) and res.witness.q_used == res.upper
        if last is not None:
            assert last.lower <= res.lower <= res.upper <= last.upper
        last = res
    assert last.exact == q


def test_every_small_multiset_on_three_vertices():
    # Loops, duplicates and every overlap a triple allows, exhaustively.
    for count, h in enumerate(_small_multisets(3, 5), 1):
        _assert_honest_brackets(h)
    assert count == 792


def _check_small_multisets(n: int, most: int) -> tuple[int, int, int]:
    """Check every multiset of non-empty hyperedges on n vertices with at
    most `most` members: the brackets as _assert_honest_brackets does, the
    criticality table as a search per row finds it and the core as a
    rescan finds it, the drop search node for node as the recursive
    reference, DSATUR's coloring of the whole line graph as the rebuilding
    reference, the condition tags as the if chain finds them, the edge
    degree bound and the inequality suite from degrees counted pair by
    pair, the hgr round trip and, on simple graphs, Vizing's coloring
    proper within the maximum degree plus 1.  Returns the number of
    inputs, of those whose drop search visits nodes, and of simple
    graphs."""
    dropping = simple = 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        for count, h in enumerate(_small_multisets(n, most), 1):
            _assert_honest_brackets(h)
            if h.m:
                g = line_graph(h)
                want = rebuilding_dsatur_greedy(g)
                assert _dsatur(g, (1 << g.n) - 1) == (want, max(want)), h.edges
            rep = criticality_report(h, FAST, extract=True)
            assert replace(rep, core=None) == searching_criticality_report(h, FAST)
            assert rep.core == rescanning_extract_critical(h, FAST)
            if rep.q is not None:
                got = _deciding(monkeypatch, h, oracle._component_chromatic)
                assert got == _deciding(monkeypatch, h, recursive_component_chromatic), h.edges
                dropping += got[1] > 0
            assert conditions(h) == if_chain_conditions(h)
            degrees = counted_edge_degrees(h)
            assert bound_set(h).edge_degree == (max(degrees) + 1 if degrees else None)
            assert inequality_suite(h) == counted_inequality_suite(h), h.edges
            assert parse_hgr(serialize_hgr(h)) == h
            if all(len(e) == 2 for e in h.edges) and len(set(h.edges)) == h.m:
                colors = vizing_edge_color(h)
                assert is_proper(h, colors)
                assert colors.q_used <= max(h.degrees(), default=0) + 1
                simple += 1
    return count, dropping, simple


def test_every_small_multiset_on_four_vertices():
    # Every overlap of up to four hyperedges on four vertices.  CI runs the
    # same checks with up to five, 15,504 inputs.
    assert _check_small_multisets(4, 4) == (3876, 159, 57)


def test_the_counting_floor_never_exceeds_the_chromatic_index():
    # Each color class is a matching, so a component C needs at least
    # ceil(|C| / floor(|W| / a)) colors.  Where the floor is at most the
    # greedy clique, the clique bounds q already; where it is above, brute
    # force checks it.
    raised = 0
    for h in _differential_inputs():
        g = line_graph(h)
        for comp in h._components:
            floor = oracle._counting_floor(g, h.edges, comp)
            if floor > len(greedy_clique(g, comp)):
                edges = [h.edges[g.order[i]] for i in _ranks(comp)]
                assert floor <= brute_chromatic_index(h.n, edges), h.edges
                raised += 1
    assert raised >= 10
    # Odd complete graphs meet it: q(K_n) = n.
    for n in (3, 5, 7, 9):
        g = line_graph(complete_graph(n))
        assert oracle._counting_floor(g, complete_graph(n).edges, (1 << g.n) - 1) == n


def _counting_passes(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch oracle._tabucol to record each pass's goal, the upper end it
    was given and the one it returned.  The list fills while the patch
    lasts."""
    passes: list[tuple[int, int, int]] = []
    tabucol = oracle._tabucol

    def counted(g, active, goal, upper, colors):
        found = tabucol(g, active, goal, upper, colors)
        passes.append((goal, upper, found))
        return found

    monkeypatch.setattr(oracle, "_tabucol", counted)
    return passes


def test_the_tabucol_witness_is_proper_and_reproducible(monkeypatch):
    # A pass runs on each component whose search a small budget cuts: its
    # coloring, when kept, is proper with the palette 1..upper, and a
    # second call returns the same result.
    passes = _counting_passes(monkeypatch)
    improved = 0
    for h in _differential_inputs():
        for nodes in (1, 5):
            passes.clear()
            res = chromatic_index(h, Budget(nodes))
            assert is_proper(h, res.witness) and res.witness.q_used == res.upper
            assert chromatic_index(h, Budget(nodes)) == res
            improved += any(found < upper for _, upper, found in passes)
    assert improved >= 50
    # The hard set's two budget-capped designs, from DSATUR's 15 and 18.
    for v, upper in ((21, 12), (27, 14)):
        h = steiner_triple(v)
        res = chromatic_index(h, Budget(16_000))
        assert res.upper == upper and is_proper(h, res.witness)
        assert res.witness.q_used == upper


def test_the_tabucol_pass_runs_only_after_a_cut(monkeypatch):
    # Every search of the critical-core benchmark's shapes ends within
    # 200,000 nodes, and at 0 nodes no component gets a local search.
    passes = _counting_passes(monkeypatch)
    budget = Budget(200_000)
    for seed in range(30):
        for h in (random_linear(16, 22, 3, seed), random_linear(20, 16, 4, seed)):
            assert criticality_report(h, budget, extract=True).complete
    for h in _differential_inputs():
        res = chromatic_index(h, Budget(0))
        assert res.nodes == 0
    assert passes == []
    # One node short of STS(15)'s proof the pass runs, and finds nothing
    # below the search's 9, so the search's coloring stays the witness.
    budget = Budget(35_331)
    res = chromatic_index(steiner_triple(15), budget)
    assert passes == [(7, 9, 9)]
    monkeypatch.setattr(oracle, "_tabucol", lambda g, active, goal, upper, *_: upper)
    assert chromatic_index(steiner_triple(15), budget) == res
    monkeypatch.undo()
    # A component after the spent budget takes the pass too: 50 nodes cut
    # STS(33), K_5 beside it is never searched, and its pass closes it at 5
    # from DSATUR's 6.
    passes = _counting_passes(monkeypatch)
    k5 = [tuple(x + 33 for x in e) for e in complete_graph(5).edges]
    h = Hypergraph(38, list(steiner_triple(33).edges) + k5)
    res = chromatic_index(h, Budget(50))
    assert res.nodes == 50 and len(passes) == 2
    assert is_proper(h, res.witness) and res.witness.q_used == res.upper
    assert len(set(res.witness.colors[-len(k5):])) == 5


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
        (15, 100_000, (9, 9), 35_332),
        # One node short of the proof, and just enough for it.
        (15, 35_331, (7, 9), 35_331),
        (15, 35_332, (9, 9), 35_332),
        (21, 20_000, (10, 12), 20_000),
        (27, 16_000, (13, 14), 16_000),
    ):
        h = steiner_triple(v)
        res = chromatic_index(h, Budget(budget))
        assert ((res.lower, res.upper), res.nodes) == (bracket, nodes)
        assert is_proper(h, res.witness)
        assert res.witness.q_used == res.upper
    h = random_linear(40, 80, 4, 1)
    res = chromatic_index(h, Budget(10_000))
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
    res = chromatic_index(h, Budget(0))
    assert (res.lower, res.upper, res.nodes) == (7, 7, 0)
    assert is_proper(h, res.witness)


def test_a_components_search_allocates_nothing_sized_by_the_input():
    # K_5 after 500, then 5,000, single edges: its ten ranks come first,
    # the padding's ranks after them.  The search of K_5's mask holds the
    # same state beside either, so its traced peak does not grow with m.
    peaks = []
    for pad in (500, 5_000):
        edges = [(5 + 2 * k, 6 + 2 * k) for k in range(pad)]
        h = Hypergraph(5 + 2 * pad, edges + list(complete_graph(5).edges))
        g = line_graph(h)
        k5 = (1 << 10) - 1
        assert sorted(g.order[i] for i in range(10)) == list(range(pad, pad + 10))
        state = oracle._SearchState(50)
        colors = [0] * h.m
        tracemalloc.start()
        try:
            found = oracle._component_chromatic(g, h.edges, k5, state, None, colors)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert found == (5, 5)
    assert peaks[1] < 2 * peaks[0], peaks


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
        # Less its lowest rank and its highest, so that the first pick is
        # not rank 0.
        active = ((1 << g.n) - 1) >> 1 & ~(1 << max(g.n - 2, 0))
        assert greedy_clique(g, active) == set_greedy_clique(g, active)


def test_large_line_graphs_match_the_references(monkeypatch):
    # Sizes the differential set never reaches.  K17's line graph has 136
    # vertices and DSATUR colors it with 19 colors; saturations reach 18,
    # so the counter carries into its fifth plane.  PG(2,11)'s is K133.
    inputs = (complete_graph(17), steiner_triple(21), projective_plane(11))
    graphs = [line_graph(h) for h in inputs]
    assert [g.n for g in graphs] == [136, 70, 133]
    assert _dsatur(graphs[0], (1 << 136) - 1)[1] == 19
    for h, g in zip(inputs, graphs):
        want = rebuilding_dsatur_greedy(g)
        assert _dsatur(g, (1 << g.n) - 1) == (want, max(want))
        assert greedy_clique(g) == set_greedy_clique(g)
        for nodes in (0, 1, 37, 500):
            budget = Budget(nodes)
            got = chromatic_index(h, budget)
            monkeypatch.setattr(oracle, "_component_chromatic", recursive_component_chromatic)
            want = chromatic_index(h, budget)
            monkeypatch.undo()
            assert got == want


def test_dsatur_matches_the_rebuilding_reference_on_large_components():
    # Components of 133 to 330 ranks, whole and less the positions through
    # vertex 0.  Larger ones (STS(99), a random linear hypergraph) are
    # pinned by their verify --no-exact digests in test_cli.
    sizes = []
    for h in (projective_plane(11), steiner_triple(33), steiner_triple(45)):
        g = line_graph(h)
        sizes.append(g.n)
        full = (1 << g.n) - 1
        inner = full & ~sum(1 << g.rank[p] for p in h.incident(0))
        for active in (full, inner):
            want = rebuilding_dsatur_greedy(g, active)
            assert _dsatur(g, active) == (want, max(want))
    assert sizes == [133, 176, 330]


def test_a_search_builds_one_line_graph(monkeypatch):
    # DSATUR, the greedy clique and the branch and bound read the masks of
    # h's one line graph: each component, and h without some positions,
    # is a mask on it, so no graph is built per component or per call.
    built = counting_builds(monkeypatch, Hypergraph, "_line_graph")
    # K_5 (line graph of 10 vertices, searched) beside the Fano plane (K_7).
    plane = [tuple(x + 5 for x in e) for e in fano().edges]
    h = Hypergraph(12, list(complete_graph(5).edges) + plane)
    res = chromatic_index(h, FAST)
    assert res.exact == 7 and res.nodes > 0
    assert chromatic_index(h, FAST, without=range(10, 17)).exact == 5
    assert built == [17]
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
    starved = Budget(max_nodes=8)
    rep = criticality_report(Hypergraph(*petersen()), starved)
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
    rep = criticality_report(Hypergraph(*petersen()), Budget(max_nodes=8))
    assert rep.q is None
    assert rep.entries == ()
    assert not rep.complete
    assert rep.lemma_ok


def test_criticality_report_extracts_a_core_only_when_asked():
    graph = Hypergraph(*petersen())
    for h in (Hypergraph(4, [(0, 1), (2, 3)]), fano(), complete_graph(5), graph):
        for budget in (FAST, Budget(max_nodes=8)):
            rep = criticality_report(h, budget)
            assert rep.core is None
            extracted = criticality_report(h, budget, extract=True)
            assert extracted.core is not None
            assert replace(extracted, core=None) == rep
    # An undecided q leaves h as an incomplete core with nothing removed.
    starved = criticality_report(graph, Budget(max_nodes=8), extract=True)
    assert starved.core == CriticalCore(graph, False, ())


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


def _asking_rows(monkeypatch):
    """A list that gets (deleted, e, answer, derived) for each row that
    _Rows.q_without decides, derived being the rows beyond e that it
    proved critical, at q - 1 in the map of decided rows."""
    asked = []
    q_without = oracle._Rows.q_without

    def counted(rows, deleted, e, budget, decided):
        def critical():
            return {f for f, value in decided.items() if value == rows.q - 1}

        before = critical()
        answer = q_without(rows, deleted, e, budget, decided)
        asked.append((tuple(deleted), e, answer, critical() - before - {e}))
        return answer

    monkeypatch.setattr(oracle._Rows, "q_without", counted)
    return asked


def test_one_pass_extraction_matches_the_rescanning_reference(monkeypatch):
    compared = 0
    for seed in range(60):
        _, h = survey_instance(seed, 0, (7, 10), (5, 9), (3,))
        ref = rescanning_extract_critical(h, FAST)
        if not ref.complete:
            continue
        asked = _asking_rows(monkeypatch)
        core = criticality_report(h, FAST, extract=True).core
        monkeypatch.undo()
        assert core == ref
        # The core comes first.  Its scan asks each row at most once: in h
        # until its first deletion, then in h without the rows deleted so
        # far.  The table then asks in h only rows that the scan kept, each
        # at most once, so the one deleted row asked in h is the first.
        in_h = [e for deleted, e, _, _ in asked if not deleted]
        assert len(in_h) == len(set(in_h))
        assert set(in_h) & set(core.removed) <= set(core.removed[:1])
        later = [(deleted, e) for deleted, e, _, _ in asked if deleted]
        assert [e for _, e in later] == sorted({e for _, e in later})
        for deleted, e in later:
            assert deleted == core.removed[: len(deleted)] and e > deleted[-1]
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
    gained = derived = 0
    for index, h in enumerate(_criticality_inputs()):
        full = searching_criticality_report(h, FAST)
        calls = counting_searches(monkeypatch)
        rep = criticality_report(h, FAST)
        monkeypatch.undo()
        assert rep == full
        proofs = _certified(h, rep)
        # One base search: the drop search decides every row that no proof
        # of the base search settles, so none is searched on its own.
        unsettled = sum(not any(p) for p in proofs)
        assert len(calls) == 1
        derived += 1 + unsettled - len(calls)
        for entry, p in zip(rep.entries, proofs):
            fired = [f + b for f, b in zip(fired, p)]
            if any(p[:2]):
                assert entry.q_without == rep.q
            if p[2]:
                assert entry.critical is True
        # The core comes first; every row it decides is the table's.
        extracted = criticality_report(h, FAST, extract=True)
        assert replace(extracted, core=None) == full
        core = extracted.core
        assert core == rescanning_extract_critical(h, FAST)
        for nodes in (20, 50, 200):
            budget = Budget(nodes)
            ref = searching_criticality_report(h, budget)
            table = criticality_report(h, budget)
            got = criticality_report(h, budget, extract=True)
            assert got.q == table.q == ref.q
            for mine, alone, theirs, want in zip(
                got.entries, table.entries, ref.entries, full.entries
            ):
                if theirs.critical is not None:
                    assert alone == theirs
                if alone.critical is not None:
                    assert mine == alone
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
    assert derived == 839


def _deciding_rows(monkeypatch) -> list:
    """A list that gets, for each _Rows.decide call, the map of the rows
    of h it decided."""
    maps = []
    decide = oracle._Rows.decide

    def counted(rows, budget, decided):
        nodes = decide(rows, budget, decided)
        maps.append(dict(decided))
        return nodes

    monkeypatch.setattr(oracle._Rows, "decide", counted)
    return maps


def test_exchanged_rows_are_critical(monkeypatch):
    # Every row the drop search or the exchange argument proves critical,
    # in h or in a subhypergraph h' of the extraction, is critical there
    # by brute force: loops and duplicate edges included.  Every row the
    # drop search finds removable is removable.
    derived = {True: 0, False: 0}
    for seed in range(150):
        h = random_hypergraph_raw(Rng(seed + 17_000), 2, 9, 12, 1, 4)
        for extract in (False, True):
            asked = _asking_rows(monkeypatch)
            maps = _deciding_rows(monkeypatch)
            rep = criticality_report(h, FAST, extract=extract)
            monkeypatch.undo()
            for decided in maps:
                for f, value in decided.items():
                    sub = h.without({f})
                    assert brute_chromatic_index(sub.n, list(sub.edges)) == value
                    derived[False] += value == rep.q - 1
            for deleted, e, answer, rows in asked:
                assert not rows or answer == rep.q - 1
                for f in rows:
                    sub = h.without({f, *deleted})
                    assert brute_chromatic_index(sub.n, list(sub.edges)) == rep.q - 1
                    derived[bool(deleted)] += 1
    # Rows proved critical in h, and derived in an h' with a row deleted.
    assert derived == {False: 1094, True: 119}


def test_base_search_proofs_match_brute_force_on_subhypergraphs():
    # _Rows._proof on h' = h - D for every set D of at most 2 positions
    # with q(h') = q, not only the prefixes of the deletions a core scan
    # makes: every row it settles has the brute-force value of h' - e, and
    # every row its exchange derives is critical in h' by brute force.
    # Brute force is exponential in the edges, and the linear inputs have
    # 16 to 30, so of _differential_inputs only those of at most 14 edges
    # are taken: the draws with loops and duplicates, and small graphs.
    settled = derived = 0
    small = (h for h in _differential_inputs() if h.m <= 14)
    for h in chain(_small_multisets(3, 5), small):
        base = chromatic_index(h, FAST)
        q = base.exact
        rows = oracle._Rows(h, q, base.witness)
        rank = rows.graph.rank

        @cache
        def brute(gone: frozenset) -> int:
            sub = h.without(gone)
            return brute_chromatic_index(sub.n, list(sub.edges))

        for size in (0, 1, 2):
            for deleted in combinations(range(h.m), size):
                if brute(frozenset(deleted)) != q:
                    continue
                for e in set(range(h.m)) - set(deleted):
                    decided: dict = {}
                    gone = sum(1 << rank[p] for p in (e, *deleted))
                    found = rows._proof(e, gone, decided)
                    if found is None:
                        assert not decided
                        continue
                    assert found == brute(frozenset((e, *deleted)))
                    settled += 1
                    for f, value in decided.items():
                        if f != e:
                            assert value == q - 1 == brute(frozenset((f, *deleted)))
                            derived += 1
    assert (settled, derived) == (11_445, 18_855)


def test_a_lone_row_reads_the_base_classes_in_order_of_first_position_left():
    # The rows the exchange derives depend on the order in which it reads
    # the color classes.  With rows 2 and 5 deleted, q stays 6 and row 1
    # is alone in its base class; read in order of each class's first
    # position in h instead, the classes would derive row 11 as well.
    h = random_linear(12, 15, 3, 1)
    base = chromatic_index(h, FAST)
    rows = oracle._Rows(h, base.exact, base.witness)
    decided: dict = {}
    assert rows.q_without([2, 5], 1, FAST, decided) == 5
    assert decided == {e: 5 for e in (0, 1, 3, 6, 8, 9, 10, 13, 14)}


def _drop_inputs():
    for seed in range(30):
        yield random_linear(16, 22, 3, seed)
        yield random_linear(20, 16, 4, seed)
    # Loops and duplicate edges.
    for seed in range(60):
        yield random_hypergraph_raw(Rng(seed + 19_000), 2, 9, 12, 1, 4)
    # Unions of 2 or 3 parts, so that one component or several need q.
    for seed in range(70):
        rng = Rng(seed + 19_500)
        parts = []
        for _ in range(2 + rng.below(2)):
            kind = rng.below(4)
            if kind == 0:
                parts.append(cycle(3 + rng.below(4)))
            elif kind == 1:
                parts.append(complete_graph(3 + rng.below(3)))
            elif kind == 2:
                parts.append(random_linear(9, 8, 3, seed))
            else:
                parts.append(random_hypergraph_raw(rng, 2, 7, 8, 1, 3))
        yield reduce(_disjoint_union, parts)
    for n in range(1, 6):
        yield Hypergraph(n, [])
        yield Hypergraph(n, [tuple(range(n))])
    # q = 1: disjoint edges, then loops.
    for m in range(1, 6):
        yield Hypergraph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        yield Hypergraph(m, [(i,) for i in range(m)])


def _deciding(monkeypatch, h: Hypergraph, search) -> tuple:
    """_Rows.decide on h at FAST with search as its component search: the
    rows it decides, its nodes, each component search (its ranks, whether
    it may drop rows, and its bracket) and each exchange it makes (the
    rank and the color classes it starts from)."""
    base = chromatic_index(h, FAST)
    outcomes: list = []
    exchanges: list = []
    exchange = oracle._Rows._exchange

    def exchanging(rows, i, classes, decided):
        exchanges.append((i, sorted(classes.items())))
        return exchange(rows, i, classes, decided)

    def searching(*args):
        outcomes.append((args[2], args[6] != 0, search(*args)))
        return outcomes[-1][2]

    monkeypatch.setattr(oracle._Rows, "_exchange", exchanging)
    monkeypatch.setattr(oracle, "_component_chromatic", searching)
    decided: dict = {}
    nodes = oracle._Rows(h, base.exact, base.witness).decide(FAST, decided)
    monkeypatch.undo()
    return decided, nodes, outcomes, exchanges


def test_drop_search_matches_the_recursive_reference(monkeypatch):
    # One drop search decides every row of the table: node for node as
    # the recursive reference, and with the values of a search per row.
    needing = {0: 0, 1: 0, 2: 0}
    beside = dropped = plain = 0
    for index, h in enumerate(_drop_inputs()):
        calls = counting_searches(monkeypatch)
        rep = criticality_report(h, FAST)
        monkeypatch.undo()
        assert rep == searching_criticality_report(h, FAST)
        got = _deciding(monkeypatch, h, oracle._component_chromatic)
        assert got == _deciding(monkeypatch, h, recursive_component_chromatic)
        decided, nodes, outcomes, exchanges = got
        assert decided == {e.position: e.q_without for e in rep.entries}
        assert len(calls) == (rep.q is not None)
        # Only a component on which the base coloring uses q colors is
        # searched; one with no row left to drop is searched as in the
        # base search.
        colors = chromatic_index(h, FAST).witness.colors
        order = line_graph(h).order
        for comp, drops, _ in outcomes:
            assert len({colors[order[i]] for i in _ranks(comp)}) == rep.q
            plain += not drops
        # Components that need q: none when no row is left to search, else
        # one, or two, which settles every row.
        need = sum(lo >= rep.q for _, _, (lo, _) in outcomes)
        assert need or not outcomes
        needing[need] += 1
        # One component needs q beside components that take q - 1 colors.
        beside += need == 1 and len(h._components) > 1
        dropped += len(exchanges)
    assert index + 1 == 210
    assert needing[1] >= 80 and needing[2] >= 10 and beside >= 20
    assert dropped >= 150 and plain >= 10


def test_a_component_with_no_row_left_is_not_searched_for_drops(monkeypatch):
    # A star of 7 edges with a pendant edge, beside the Fano plane: q = 7.
    # The greedy clique is the star, so the plane's rows and the pendant
    # edge are removable, and only the star's rows are left to search.
    # The plane needs 7 colors by its own clique, which the table holds no
    # copy of: its search asks only whether 6 colors do, as the base
    # search did, and that clique ends it before a node.  The star's
    # search then needs 7 as well, so every row is removable.
    h = _disjoint_union(Hypergraph(9, [(0, i) for i in range(1, 8)] + [(1, 8)]), fano())
    base = chromatic_index(h, FAST)
    rows = oracle._Rows(h, base.exact, base.witness)
    search = oracle._component_chromatic
    searched = []

    def counted(g, edges, active, state, *args):
        before = state.nodes
        bracket = search(g, edges, active, state, *args)
        searched.append((args[2] != 0, bracket, state.nodes - before))
        return bracket

    monkeypatch.setattr(oracle, "_component_chromatic", counted)
    decided: dict = {}
    nodes = rows.decide(FAST, decided)
    assert decided == {e: 7 for e in range(h.m)}
    assert searched == [(True, (7, 7), nodes), (False, (7, 7), 0)] and nodes > 0


def test_a_components_proofs_wait_for_every_other_component():
    # Two 5-cycles: q = 3, and each cycle less an edge takes 2 colors, so
    # the first cycle's drop search proves its rows, but the second cycle
    # needs 3 as well, and every row of h is removable.  Under each budget
    # that cuts the second search, the first one's proofs stay unrecorded.
    h = _disjoint_union(cycle(5), cycle(5))
    base = chromatic_index(h, FAST)
    rows = oracle._Rows(h, base.exact, base.witness)
    full: dict = {}
    nodes = rows.decide(FAST, full)
    assert full == {e: 3 for e in range(h.m)}
    for cut in range(nodes):
        decided: dict = {}
        rows.decide(Budget(cut), decided)
        assert decided == {}, cut


def test_drop_search_nodes_are_pinned():
    # The benchmark's tracer counts the nodes of chromatic_index results
    # only, so this pin is where a change to the drop search's nodes shows.
    total = 0
    for seed in range(30):
        for h in (random_linear(16, 22, 3, seed), random_linear(20, 16, 4, seed)):
            base = chromatic_index(h, FAST)
            total += oracle._Rows(h, base.exact, base.witness).decide(FAST, {})
    assert total == DROP_NODES


def test_a_cut_drop_search_leaves_its_open_rows_to_row_searches(monkeypatch):
    # Every row of this input is critical.  Its base search takes 2,573
    # nodes and its drop search 7,494, so a budget of 3,000 per call cuts
    # the drop search alone, with some rows proved and the rest left open.
    h = random_linear(16, 30, 3, 10)
    base = chromatic_index(h, FAST)
    rows = oracle._Rows(h, base.exact, base.witness)
    full: dict = {}
    assert base.nodes == 2_573 and rows.decide(FAST, full) == 7_494
    assert full == {e: base.exact - 1 for e in range(h.m)}
    budget = Budget(3_000)
    cut: dict = {}
    assert rows.decide(budget, cut) == 3_000
    assert cut.items() < full.items()
    # In the report, the rows it left open are searched one by one in h,
    # and the table is the uncut one.
    asked = _asking_rows(monkeypatch)
    rep = criticality_report(h, budget)
    monkeypatch.undo()
    assert rep == criticality_report(h, FAST)
    left_open = sorted(set(range(h.m)) - set(cut))
    searched = [e for deleted, e, _, _ in asked]
    assert searched[0] == left_open[0] and set(searched) <= set(left_open)
    assert all(not deleted for deleted, _, _, _ in asked)


# sha256 of criticality_report over _small_budget_inputs at each budget,
# with extract off and on, and of the (searched m, nodes) of every
# chromatic_index call it made: a small budget leaves rows and cores
# undecided, so this pins which ones, and the searches that decide the
# rest.  Recorded once row searches became masks on h's line graph with
# the target q - 1: against the subgraph searches before, at 0 to 50
# nodes per call 111 rows were newly decided and 96 newly undecided, 29
# reports gained complete and 12 lost it; none moved at 200 or 10**6
# nodes, and no decided value changed.  Re-recorded when one drop search
# came to decide the rows of h: the calls list lost the row searches it
# replaces, and against the search per row, at 0 to 50 nodes 2 rows were
# newly decided and none newly undecided, 2 reports gained complete and
# none lost it; no row, core or flag moved at 200 or 10**6 nodes, and no
# decided value changed.  Re-recorded when the counting floor and the
# TabuCol pass came to close brackets: at 0 to 50 nodes the base q of 70
# reports and 1,380 rows were newly decided and none newly undecided, 56
# reports gained complete and none lost it, and 32 cores became complete;
# nothing, the calls and their nodes included, moved at 200 or 10**6
# nodes, and no decided value changed.
SMALL_BUDGET_DIGEST = "5f355e48b8f1bfbff2b62bf7478ad71e4d3dadcfbb548e9c602b641bce8e3e2f"


def _small_budget_inputs():
    for seed in range(20):
        yield random_linear(16, 22, 3, seed)
        yield random_linear(20, 16, 4, seed)
        yield random_linear(14, 18, 3, seed)
    # Loops and duplicate edges.
    for seed in range(120):
        yield random_hypergraph_raw(Rng(seed + 18_000), 2, 9, 12, 1, 4)


def test_critical_under_small_budgets_is_pinned(monkeypatch):
    calls = counting_searches(monkeypatch)
    lines = []
    for h in _small_budget_inputs():
        for nodes in (0, 2, 5, 20, 35, 50, 200, 10**6):
            for extract in (False, True):
                rep = criticality_report(h, Budget(nodes), extract=extract)
                rows = [(e.position, e.degree, e.q_without, e.critical) for e in rep.entries]
                core = rep.core and (rep.core.complete, rep.core.removed, rep.core.hypergraph.edges)
                lines.append(repr((rep.q, rows, rep.complete, rep.lemma_ok, core, calls)))
                calls.clear()
    assert len(lines) == 180 * 16
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == SMALL_BUDGET_DIGEST


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
