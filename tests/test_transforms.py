"""Two-section facts and the line graph, against the references in brute.py."""

from __future__ import annotations

from hypercolor import Hypergraph, Rng, fano, projective_plane, steiner_triple
from hypercolor.transforms import line_graph

from brute import (
    brute_two_section,
    brute_two_section_max_degree,
    graph_edges,
    graph_hypergraph,
    pairwise_line_graph_edges,
    random_graph,
    random_hypergraph_raw,
    sorted_adjacency,
)


def test_graph_hypergraph_has_the_graph_as_its_line_graph():
    isolated = 0
    for seed in range(200):
        rng = Rng(seed + 3000)
        n, edges = random_graph(rng, 0, 12, 0, 40)
        isolated += any(not row for row in sorted_adjacency(n, edges))
        # Each edge again, reversed, changes nothing.
        doubled = edges + [(v, u) for u, v in edges if rng.below(2)]
        h = graph_hypergraph(n, doubled)
        assert line_graph(h).adj == sorted_adjacency(n, edges)
        assert h.m == n and max(h.degrees(), default=0) <= 2
    assert isolated >= 50
    assert line_graph(graph_hypergraph(4, [(1, 0), (2, 3), (0, 1)])).adj == (
        (1,), (0,), (3,), (2,)
    )


def test_simple_graph_components_and_induced():
    g = line_graph(graph_hypergraph(5, [(0, 1), (1, 2), (3, 4)]))
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
    assert not h.stats().linear
    # Loops contribute nothing to the two-section.
    loops = Hypergraph(2, [(0,), (0,)])
    assert brute_two_section(2, loops.edges) == {}
    assert loops.stats().two_section_max_degree == 0
    assert loops.stats().linear


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
        assert st.linear == linear
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


def _shuffled(rng: Rng, items) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_without_inherits_or_builds_the_line_graph():
    for index, h in enumerate(_raw_inputs()):
        rng = Rng(index + 7000)
        gone = {p for p in range(h.m) if rng.below(3) == 0}
        kept = [e for p, e in enumerate(h.edges) if p not in gone]
        want = sorted_adjacency(len(kept), pairwise_line_graph_edges(h.n, kept))
        # Before h's rows are built, the subhypergraph builds its own.
        lazy = h.without(gone)
        assert "_line_graph" not in vars(lazy)
        assert line_graph(lazy).adj == want
        # After, it inherits them, renumbered.
        assert line_graph(h) is line_graph(h)
        inherited = h.without(gone)
        assert "_line_graph" in vars(inherited)
        assert line_graph(inherited).adj == want
        keep = tuple(p for p in range(h.m) if p not in gone)
        assert line_graph(inherited).adj == line_graph(h).induced(keep).adj


def test_induced_on_shuffled_vertices_matches_the_pairs():
    for seed in range(200):
        rng = Rng(seed + 8000)
        g = line_graph(graph_hypergraph(*random_graph(rng, 0, 12)))
        vertices = tuple(v for v in _shuffled(rng, range(g.n)) if rng.below(4))
        index = {v: i for i, v in enumerate(vertices)}
        pairs = [
            (index[u], index[v])
            for u, v in graph_edges(g)
            if u in index and v in index
        ]
        sub = g.induced(vertices)
        assert sub.n == len(vertices)
        assert sub.adj == sorted_adjacency(len(vertices), pairs)


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
    assert sts.stats().linear
    lg = line_graph(sts)
    assert lg.n == 1617
    assert {len(row) for row in lg.adj} == {144}
    plane = line_graph(projective_plane(11))
    assert plane.n == 133
    assert {len(row) for row in plane.adj} == {132}
