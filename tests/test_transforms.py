"""Two-section facts and the line graph, against the references in brute.py."""

from __future__ import annotations

import pytest

from hypercolor import Hypergraph, Rng, fano, projective_plane, steiner_triple
from hypercolor.transforms import SimpleGraph, line_graph

from brute import (
    brute_two_section,
    brute_two_section_max_degree,
    graph_edges,
    pairwise_line_graph_edges,
    random_hypergraph_raw,
)


def test_simple_graph_construction():
    g = SimpleGraph(4, [(1, 0), (2, 3), (0, 1)])
    assert g.adj == ((1,), (0,), (3,), (2,))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.adj[0] == (1,)
    assert g.degree(0) == 1 and g.max_degree() == 1
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])


def test_simple_graph_components_and_induced():
    g = SimpleGraph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.connected_components() == [(0, 1, 2), (3, 4)]
    sub = g.induced((1, 2, 3))
    assert sub.n == 3
    assert graph_edges(sub) == [(0, 1)]
    # All vertices in their own order: the frozen graph itself is shared.
    assert g.induced((0, 1, 2, 3, 4)) is g
    # A permuted or partial tuple still relabels.
    perm = g.induced((4, 3, 2, 1, 0))
    assert perm is not g
    assert graph_edges(perm) == [(0, 1), (2, 3), (3, 4)]
    part = g.induced((0, 1, 2, 3))
    assert part is not g
    assert part.n == 4 and graph_edges(part) == [(0, 1), (1, 2)]


def test_two_section_multiplicities():
    edges = [(0, 1, 2), (0, 1, 3)]
    assert brute_two_section(4, edges) == {
        (0, 1): 2, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1
    }
    h = Hypergraph(4, edges)
    assert h.stats().two_section_max_degree == 4
    assert not h.is_linear() and not h.stats().linear
    # Loops contribute nothing to the two-section.
    loops = Hypergraph(2, [(0,), (0,)])
    assert brute_two_section(2, loops.edges) == {}
    assert loops.stats().two_section_max_degree == 0
    assert loops.is_linear()


def test_two_section_of_fano_is_the_simple_complete_graph():
    mult = brute_two_section(7, fano().edges)
    assert len(mult) == 21
    assert set(mult.values()) == {1}
    st = fano().stats()
    assert st.linear and st.two_section_max_degree == 6


_LOOPLESS = [(0, 1, 2), (2, 3), (3, 4, 0)]
_WITH_LOOPS = _LOOPLESS + [(2,), (2,), (0,)]


def _raw_inputs():
    """Seeded raw hypergraphs, then hand-made ones with loops."""
    for seed in range(240):
        if seed % 3 == 2:
            # Few vertices and large edges: many shared pairs.
            yield random_hypergraph_raw(Rng(seed + 4000), 3, 6, 10, 2, 5)
        else:
            yield random_hypergraph_raw(Rng(seed + 4000))
    yield Hypergraph(0, [])
    yield Hypergraph(3, [(0,), (0,), (1,)])
    yield Hypergraph(5, _WITH_LOOPS)


def test_intersection_facts_match_the_references():
    seen = set()
    for h in _raw_inputs():
        edges = list(h.edges)
        mult = brute_two_section(h.n, edges)
        linear = all(k == 1 for k in mult.values())
        st = h.stats()
        assert graph_edges(line_graph(h)) == pairwise_line_graph_edges(h.n, edges)
        assert h.is_linear() == st.linear == linear
        assert st.two_section_max_degree == brute_two_section_max_degree(h.n, edges)
        seen.add("linear" if linear else "nonlinear")
        if h.m == 0:
            seen.add("empty")
        if not st.loopless:
            seen.add("loop")
        if len(set(edges)) < h.m:
            seen.add("duplicate-linear" if linear else "duplicate")
    assert seen == {
        "linear", "nonlinear", "empty", "loop", "duplicate", "duplicate-linear"
    }
    # Loops add nothing to Delta_2.
    assert Hypergraph(5, _WITH_LOOPS).stats().two_section_max_degree == 4
    assert Hypergraph(5, _LOOPLESS).stats().two_section_max_degree == 4


def test_line_graph_adjacency():
    h = Hypergraph(5, [(0, 1), (1, 2), (3, 4)])
    lg = line_graph(h)
    assert lg.n == 3
    assert graph_edges(lg) == [(0, 1)]
    # Duplicate positions intersect, so they are adjacent.
    dup = line_graph(Hypergraph(2, [(0, 1), (0, 1)]))
    assert graph_edges(dup) == [(0, 1)]


def test_line_graph_of_fano_is_complete():
    lg = line_graph(fano())
    assert lg.n == 7
    assert len(graph_edges(lg)) == 21


def test_line_graphs_of_the_large_designs():
    sts = steiner_triple(99)
    assert sts.is_linear()
    lg = line_graph(sts)
    assert lg.n == 1617
    assert {lg.degree(v) for v in range(lg.n)} == {144}
    plane = line_graph(projective_plane(11))
    assert plane.n == 133
    assert {plane.degree(v) for v in range(plane.n)} == {132}
