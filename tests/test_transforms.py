"""Two-section facts and the line graph, against the references in brute.py."""

from __future__ import annotations

from hypercolor import Hypergraph, Rng, fano, projective_plane, steiner_triple
from hypercolor.transforms import _component_masks, _ranks, line_graph

from brute import (
    brute_line_graph_components,
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


def _position_components(h: Hypergraph) -> list[tuple[int, ...]]:
    """The positions of each component mask of h's line graph, ascending."""
    g = line_graph(h)
    return [
        tuple(sorted(g.order[i] for i in _ranks(comp)))
        for comp in _component_masks(g, (1 << h.m) - 1)
    ]


def test_simple_graph_components_and_induced():
    # The components are masks on h's line graph, by their smallest
    # position; the line graph of h without some positions is the part of
    # h's on the rest.
    h = graph_hypergraph(5, [(0, 1), (1, 2), (3, 4)])
    assert _position_components(h) == [(0, 1, 2), (3, 4)]
    sub = line_graph(h.without((0, 4)))
    assert sub.n == 3
    assert graph_edges(sub) == [(0, 1)]
    # Without nothing: the frozen hypergraph itself, line graph and all.
    assert h.without(()) is h
    part = h.without((4,))
    assert part is not h
    assert part.m == 4 and graph_edges(line_graph(part)) == [(0, 1), (1, 2)]


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


def test_without_builds_its_own_line_graph():
    for index, h in enumerate(_raw_inputs()):
        rng = Rng(index + 7000)
        gone = {p for p in range(h.m) if rng.below(3) == 0}
        kept = [e for p, e in enumerate(h.edges) if p not in gone]
        want = sorted_adjacency(len(kept), pairwise_line_graph_edges(h.n, kept))
        # Before and after h's line graph is built, the subhypergraph
        # builds its own; without nothing, it is h.
        assert line_graph(h.without(gone)).adj == want
        assert line_graph(h) is line_graph(h)
        sub = h.without(gone)
        assert sub is h if not gone else "_line_graph" not in vars(sub)
        assert line_graph(sub).adj == want


def test_line_graph_masks_match_the_pairs():
    # Checked against the pairwise intersections, not against adj, which
    # is derived from the masks; so are the components that the oracle
    # searches and Brooks' colorer colors one by one.
    for h in _raw_inputs():
        assert _position_components(h) == brute_line_graph_components(list(h.edges))
        g = line_graph(h)
        pairs = set(pairwise_line_graph_edges(h.n, list(h.edges)))
        degree = [0] * h.m
        for i, j in pairs:
            degree[i] += 1
            degree[j] += 1
        assert g.order == tuple(sorted(range(h.m), key=lambda p: (-degree[p], p)))
        assert g.rank == tuple(g.order.index(p) for p in range(h.m))
        for i, u in enumerate(g.order):
            assert g.nb[i] >> h.m == 0
            for j, v in enumerate(g.order):
                assert (g.nb[i] >> j & 1) == ((min(u, v), max(u, v)) in pairs)


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
