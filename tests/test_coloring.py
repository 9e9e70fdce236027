"""Constructive colorers: greedy, degree-bounded vertex, fan-rotation edge."""

from __future__ import annotations

import hashlib

import pytest

from hypercolor import (
    Coloring,
    Hypergraph,
    Rng,
    UnsupportedInputError,
    affine_plane,
    brooks_color,
    complete_graph,
    cycle,
    fano,
    generate,
    greedy_color,
    is_proper,
    line_graph,
    parse_family,
    random_linear,
    steiner_triple,
    vizing_edge_color,
)
from hypercolor.coloring import _cut_vertex
from hypercolor.transforms import SimpleGraph

from brute import (
    bridged_cubic,
    brute_cut_vertices,
    counting_builds,
    gadget_join,
    graph_hypergraph,
    low_point_cut_vertex,
    pairwise_line_graph_edges,
    petersen,
    random_connected_graph,
    random_graph,
    random_hypergraph_raw,
    sorted_adjacency,
    vertex_set_greedy_color,
)


def test_coloring_records_validate_their_palette():
    assert Coloring((1, 2)).q_used == 2
    assert Coloring(()).q_used == 0
    with pytest.raises(ValueError):
        Coloring((1, 3))
    with pytest.raises(ValueError):
        Coloring((0,))
    with pytest.raises(ValueError):
        Coloring((2,))


def test_is_proper_requires_totality_and_disjoint_classes():
    h = Hypergraph(3, [(0, 1), (1, 2)])
    assert is_proper(h, Coloring((1, 2)))
    assert not is_proper(h, Coloring((1, 1)))
    with pytest.raises(ValueError):
        is_proper(h, Coloring((1,)))
    disjoint = Hypergraph(4, [(0, 1), (2, 3)])
    assert is_proper(disjoint, Coloring((1, 1)))


def test_is_proper_separates_duplicate_positions():
    dup = Hypergraph(2, [(0, 1), (0, 1)])
    assert not is_proper(dup, Coloring((1, 1)))
    assert is_proper(dup, Coloring((1, 2)))


def test_is_proper_matches_the_pairwise_rule():
    # Color classes as matchings against "every intersecting pair of
    # positions differs", on inputs with loops and duplicate hyperedges.
    outcomes = set()
    for seed in range(300):
        rng = Rng(seed + 5600)
        h = random_hypergraph_raw(rng, 1, 8, 10, 1, 4)
        drawn = [rng.randint(1, 4) for _ in range(h.m)]
        rank = {c: i + 1 for i, c in enumerate(sorted(set(drawn)))}
        colors = tuple(rank[c] for c in drawn)
        pairs = pairwise_line_graph_edges(h.n, list(h.edges))
        want = all(colors[i] != colors[j] for i, j in pairs)
        assert is_proper(h, Coloring(colors)) == want, seed
        outcomes.add(want)
    assert outcomes == {True, False}


def test_greedy_color_orders_and_guarantee():
    for seed in range(30):
        h = random_hypergraph_raw(Rng(seed + 5000))
        ceiling = max(
            (h.hyperedge_degree(i) for i in range(h.m)), default=0
        ) + 1
        for order in ("index", "desc-degree"):
            c = greedy_color(h, order=order)
            assert is_proper(h, c)
            assert h.m == 0 or c.q_used <= ceiling
        c1 = greedy_color(h, order="random", seed=seed)
        c2 = greedy_color(h, order="random", seed=seed)
        assert c1 == c2
        assert is_proper(h, c1)
        assert h.m == 0 or c1.q_used <= ceiling


def test_greedy_color_matches_the_per_vertex_reference():
    # First fit on the line graph's masks against the per-vertex color
    # sets it replaced, in every order, on inputs with loops and duplicates.
    loops = duplicates = 0
    for seed in range(300):
        h = random_hypergraph_raw(Rng(seed + 5200), 1, 10, 16, 1, 5)
        loops += any(len(e) == 1 for e in h.edges)
        duplicates += len(set(h.edges)) < h.m
        runs = [("index", None), ("desc-degree", None), ("random", None)]
        runs += [("random", s) for s in (0, 1, seed, 10_000 + seed)]
        for order, s in runs:
            want = vertex_set_greedy_color(h, order, s)
            assert greedy_color(h, order, s) == want, (seed, order, s)
    assert loops and duplicates


def test_greedy_color_rejects_unknown_order():
    with pytest.raises(ValueError):
        greedy_color(fano(), order="mystery")


def _check_brooks(n: int, edges: list[tuple[int, int]]) -> Coloring:
    # Brooks colors the line graph, here the graph (n, edges) itself.
    h = graph_hypergraph(n, edges)
    coloring = brooks_color(h)
    assert is_proper(h, coloring)
    return coloring


def _degrees(n: int, edges: list[tuple[int, int]]) -> list[int]:
    return [len(row) for row in sorted_adjacency(n, edges)]


def test_brooks_on_complete_graphs_uses_exactly_n():
    for n in range(1, 7):
        k_n = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert _check_brooks(n, k_n).q_used == n


def test_brooks_on_paths_and_cycles():
    assert _check_brooks(4, [(0, 1), (1, 2), (2, 3)]).q_used <= 2
    assert _check_brooks(6, [(i, (i + 1) % 6) for i in range(6)]).q_used == 2
    assert _check_brooks(5, [(i, (i + 1) % 5) for i in range(5)]).q_used == 3


def test_brooks_on_regular_two_connected_graphs():
    assert _check_brooks(*petersen()).q_used <= 3
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    assert _check_brooks(6, prism).q_used <= 3
    circulant = [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 2) % 8) for i in range(8)]
    assert _check_brooks(8, circulant).q_used <= 4
    # Without 1 and 5, the first non-adjacent neighbours of vertex 0, this
    # cubic graph falls apart, so the split-pair search must pass them by.
    cut_pair = [
        (0, 1), (0, 4), (0, 5), (1, 4), (1, 6), (2, 3),
        (2, 6), (2, 7), (3, 5), (3, 7), (4, 5), (6, 7),
    ]
    assert _check_brooks(8, cut_pair).q_used <= 3


def test_brooks_on_regular_graph_with_cut_vertices():
    n, edges = bridged_cubic()
    assert set(_degrees(n, edges)) == {3}
    assert _check_brooks(n, edges).q_used <= 3
    for d in (4, 6, 8):
        n, edges = gadget_join(d)
        assert set(_degrees(n, edges)) == {d}
        assert brute_cut_vertices(line_graph(graph_hypergraph(n, edges))) == {0}
        assert _check_brooks(n, edges).q_used <= d


def test_cut_vertex_matches_vertex_removal():
    outcomes = set()
    for seed in range(300):
        n, edges = random_connected_graph(Rng(seed + 8000), 2, 14)
        g = line_graph(graph_hypergraph(n, edges))
        cut = brute_cut_vertices(g)
        found = _cut_vertex(g)
        if found is None:
            assert not cut, seed
        else:
            assert found in cut, seed
        outcomes.add(found is None)
    assert outcomes == {True, False}
    # On a regular graph, where a rank is a position, the search over the
    # masks finds the cut vertex that the low-point search over rows finds.
    outcomes = set()
    for h in _brooks_guard_inputs():
        for comp in h._components():
            g = line_graph(h._keeping(comp))
            if g.nb[0].bit_count() == g.nb[-1].bit_count():
                found = _cut_vertex(g)
                assert found == low_point_cut_vertex(g.adj), (h, comp)
                outcomes.add(found is None)
    assert outcomes == {True, False}


def test_brooks_on_disconnected_input():
    edges = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4)]
    assert _check_brooks(8, edges).q_used <= 3


def test_brooks_respects_max_degree_on_random_connected_graphs():
    for seed in range(100):
        n, edges = random_connected_graph(Rng(seed + 6000), 2, 12)
        coloring = _check_brooks(n, edges)
        degs = _degrees(n, edges)
        delta = max(degs)
        complete = all(d == n - 1 for d in degs)
        odd_cycle = delta == 2 and n % 2 == 1 and all(d == 2 for d in degs)
        if complete:
            assert coloring.q_used == n
        elif odd_cycle:
            assert coloring.q_used == 3
        else:
            assert coloring.q_used <= max(delta, 1)


def _brooks_guard_inputs():
    """Regular graphs with and without cut vertices, cycles, a complete
    graph, a design, a disconnected input with a loop and 400 random
    graphs: together they reach every branch of the Brooks colorer."""
    for n, edges in (petersen(), bridged_cubic(), *map(gadget_join, (4, 6, 8))):
        yield graph_hypergraph(n, edges)
    yield from (cycle(7), cycle(8), complete_graph(6), steiner_triple(15))
    yield generate(parse_family("random:n=9,m=5,sizes=1-3,seed=0"))
    for s in range(200):
        yield graph_hypergraph(*random_connected_graph(Rng(s + 8000), 2, 14))
        yield graph_hypergraph(*random_graph(Rng(s + 9000), 0, 14))


# sha256 of the Brooks colorings of _brooks_guard_inputs, one line of
# colors per input, recorded on an earlier form of the colorer, so the pin
# holds every rewrite to the same output.
_BROOKS_GUARD = "91c71aeddbaa1cc00ee9fed8fe59788f197a08a824766000e6a922ea2abfcbf6"


def test_brooks_colorings_are_pinned():
    lines = [" ".join(map(str, brooks_color(h).colors)) for h in _brooks_guard_inputs()]
    assert len(lines) == 410
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == _BROOKS_GUARD


def test_colorers_build_no_part_of_a_component(monkeypatch):
    # Brooks' colorer builds one line graph per component and splits it
    # in place; both colorers read the masks and derive no rows.  Between
    # them the inputs take every Brooks branch but the complete one.
    for h, sizes in (
        (graph_hypergraph(*gadget_join(8)), [37]),
        (graph_hypergraph(*bridged_cubic()), [10]),
        (graph_hypergraph(*petersen()), [10]),
        (cycle(9), [9]),
        (steiner_triple(15), [35]),
        (random_linear(120, 600, 4, 1), [600]),
    ):
        built = counting_builds(monkeypatch, Hypergraph, "_line_graph")
        derived = counting_builds(monkeypatch, SimpleGraph, "adj")
        brooks_color(h)
        assert built == sizes
        for order in ("index", "desc-degree", "random"):
            greedy_color(h, order)
        monkeypatch.undo()
        assert derived == []


def test_brooks_edge_color_on_design_instances():
    f = brooks_color(fano())
    assert is_proper(fano(), f)
    assert f.q_used == 7
    a = brooks_color(affine_plane(3))
    assert is_proper(affine_plane(3), a)
    assert a.q_used <= 9
    single = Hypergraph(3, [(0, 1, 2)])
    assert brooks_color(single).q_used == 1
    assert brooks_color(Hypergraph(3, [])) == Coloring(())


def test_vizing_pinned_instances():
    k4 = Hypergraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    c = vizing_edge_color(k4)
    assert c.q_used <= 4
    five = Hypergraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert vizing_edge_color(five).q_used == 3
    matching = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    assert vizing_edge_color(matching).q_used == 1
    empty = Hypergraph(3, [])
    assert vizing_edge_color(empty).q_used == 0


def _assert_proper_edge_coloring(h: Hypergraph, coloring: Coloring) -> None:
    assert len(coloring.colors) == h.m
    for v in range(h.n):
        seen = set()
        for idx, edge in enumerate(h.edges):
            if v in edge:
                assert coloring.colors[idx] not in seen
                seen.add(coloring.colors[idx])


def test_vizing_bound_on_random_graphs():
    for seed in range(100):
        n, edges = random_graph(Rng(seed + 7000), 2, 9)
        h = Hypergraph(n, edges)
        coloring = vizing_edge_color(h)
        assert coloring.q_used <= max(h.degrees()) + 1
        _assert_proper_edge_coloring(h, coloring)


def test_vizing_hypergraph_adapter():
    triangle = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    c = vizing_edge_color(triangle)
    assert is_proper(triangle, c)
    assert c.q_used == 3
    with pytest.raises(UnsupportedInputError, match="exactly 2 vertices"):
        vizing_edge_color(fano())
    with pytest.raises(UnsupportedInputError, match="exactly 2 vertices"):
        vizing_edge_color(Hypergraph(2, [(0,), (0, 1)]))
    with pytest.raises(UnsupportedInputError, match="no multi-edges"):
        vizing_edge_color(Hypergraph(2, [(0, 1), (0, 1)]))


def test_vizing_matches_graph_edge_coloring_on_two_uniform():
    k4 = complete_graph(4)
    c = vizing_edge_color(k4)
    assert is_proper(k4, c)
    assert c.q_used <= 4
    c5 = cycle(5)
    assert vizing_edge_color(c5).q_used == 3


def test_vizing_colors_each_edge_the_same_in_any_position_order():
    # Edges are colored in sorted order, so the positions only index them.
    for seed in range(30):
        n, edges = random_graph(Rng(seed + 7100), 2, 9)
        shuffled = list(edges)
        Rng(seed).shuffle(shuffled)
        base = vizing_edge_color(Hypergraph(n, edges))
        moved = vizing_edge_color(Hypergraph(n, shuffled))
        assert dict(zip(edges, base.colors)) == dict(zip(shuffled, moved.colors))
