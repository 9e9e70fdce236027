"""Constructive colorers: greedy, degree-bounded vertex, fan-rotation edge."""

from __future__ import annotations

import pytest

from hypercolor import (
    Coloring,
    Hypergraph,
    Rng,
    UnsupportedInputError,
    affine_plane,
    brooks_color,
    brooks_edge_color,
    complete_graph,
    cycle,
    fano,
    greedy_color,
    is_proper,
    is_proper_vertex_coloring,
    vizing_edge_color,
)
from hypercolor.transforms import SimpleGraph

from brute import (
    bridged_cubic,
    graph_edges,
    petersen,
    random_connected_graph,
    random_graph,
    random_hypergraph_raw,
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


def test_greedy_color_rejects_unknown_order():
    with pytest.raises(ValueError):
        greedy_color(fano(), order="mystery")


def _check_brooks(g: SimpleGraph) -> Coloring:
    coloring = brooks_color(g)
    assert is_proper_vertex_coloring(g, coloring)
    return coloring


def test_brooks_on_complete_graphs_uses_exactly_n():
    for n in range(1, 7):
        g = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert _check_brooks(g).q_used == n


def test_brooks_on_paths_and_cycles():
    path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert _check_brooks(path).q_used <= 2
    even = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert _check_brooks(even).q_used == 2
    odd = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert _check_brooks(odd).q_used == 3


def test_brooks_on_regular_two_connected_graphs():
    assert _check_brooks(petersen()).q_used <= 3
    prism = SimpleGraph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert _check_brooks(prism).q_used <= 3
    circulant = SimpleGraph(
        8, [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 2) % 8) for i in range(8)]
    )
    assert _check_brooks(circulant).q_used <= 4


def test_brooks_on_regular_graph_with_cut_vertices():
    g = bridged_cubic()
    assert g.max_degree() == 3
    assert all(g.degree(v) == 3 for v in range(g.n))
    assert _check_brooks(g).q_used <= 3


def test_brooks_on_disconnected_input():
    g = SimpleGraph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4)])
    assert _check_brooks(g).q_used <= 3


def test_brooks_respects_max_degree_on_random_connected_graphs():
    for seed in range(100):
        g = random_connected_graph(Rng(seed + 6000), 2, 12)
        coloring = _check_brooks(g)
        n, delta = g.n, g.max_degree()
        complete = all(g.degree(v) == n - 1 for v in range(n))
        odd_cycle = delta == 2 and n % 2 == 1 and all(
            g.degree(v) == 2 for v in range(n)
        )
        if complete:
            assert coloring.q_used == n
        elif odd_cycle:
            assert coloring.q_used == 3
        else:
            assert coloring.q_used <= max(delta, 1)


def test_brooks_edge_color_on_design_instances():
    f = brooks_edge_color(fano())
    assert is_proper(fano(), f)
    assert f.q_used == 7
    a = brooks_edge_color(affine_plane(3))
    assert is_proper(affine_plane(3), a)
    assert a.q_used <= 9
    single = Hypergraph(3, [(0, 1, 2)])
    assert brooks_edge_color(single).q_used == 1


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
        g = random_graph(Rng(seed + 7000), 2, 9)
        h = Hypergraph(g.n, graph_edges(g))
        coloring = vizing_edge_color(h)
        assert coloring.q_used <= g.max_degree() + 1
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
        g = random_graph(Rng(seed + 7100), 2, 9)
        edges = graph_edges(g)
        shuffled = list(edges)
        Rng(seed).shuffle(shuffled)
        base = vizing_edge_color(Hypergraph(g.n, edges))
        moved = vizing_edge_color(Hypergraph(g.n, shuffled))
        assert dict(zip(edges, base.colors)) == dict(zip(shuffled, moved.colors))
