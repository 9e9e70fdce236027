"""Hypergraph structure: construction, degrees, predicates, stats."""

from __future__ import annotations

import pytest

from hypercolor import Hypergraph, Rng, fano, random_linear

from brute import (
    brute_connected,
    brute_two_section_max_degree,
    pairwise_line_graph_edges,
    random_hypergraph_raw,
)


def test_construction_canonicalizes_edges():
    h = Hypergraph(5, [[3, 1, 2], (4, 0)])
    assert h.edges == ((1, 2, 3), (0, 4))
    assert h.n == 5 and h.m == 2


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(-1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(-1, [])
    # Vertex ids and n must be ints: a float or a bool is not one.
    for edge in ((0, 1.5), (0, 1.0), (True, 2)):
        with pytest.raises(ValueError, match="hyperedge 0 contains vertex"):
            Hypergraph(3, [edge])
    with pytest.raises(ValueError, match="vertex count 2.0"):
        Hypergraph(2.0, [(0, 1)])
    # Vertices that do not sort together are not ints either.
    with pytest.raises(ValueError, match="hyperedge 1 is not a set"):
        Hypergraph(3, [(0, 1), (0, "a")])


def test_duplicate_hyperedges_are_kept_as_positions():
    h = Hypergraph(2, [(0, 1), (0, 1)])
    assert h.m == 2
    assert h.degrees() == (2, 2)
    assert h.hyperedge_degree(0) == 1 and h.hyperedge_degree(1) == 1


def test_degrees_and_incidence():
    h = Hypergraph(4, [(0, 1), (1, 2), (0, 1, 2)])
    assert h.degrees() == (2, 3, 2, 0)
    assert len(h.incident(1)) == 3
    assert h.incident(3) == ()
    assert h.incident(0) == (0, 2)
    with pytest.raises(IndexError):
        h.incident(4)
    with pytest.raises(IndexError):
        h.hyperedge_degree(3)


def test_hyperedge_degree_counts_intersecting_positions():
    triangle = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    assert [triangle.hyperedge_degree(i) for i in range(3)] == [2, 2, 2]
    f = fano()
    assert all(f.hyperedge_degree(i) == 6 for i in range(7))
    matching = Hypergraph(4, [(0, 1), (2, 3)])
    assert matching.hyperedge_degree(0) == 0


def test_hyperedge_degree_matches_the_pairwise_line_graph():
    for seed in range(300):
        h = random_hypergraph_raw(Rng(seed + 5400), 1, 10, 16, 1, 5)
        want = [0] * h.m
        for i, j in pairwise_line_graph_edges(h.n, list(h.edges)):
            want[i] += 1
            want[j] += 1
        assert [h.hyperedge_degree(i) for i in range(h.m)] == want, seed


def test_rank_antirank_and_loopless():
    empty = Hypergraph(3, []).stats()
    assert empty.rank is None
    assert empty.antirank is None
    st = Hypergraph(5, [(0,), (1, 2, 3), (0, 4)]).stats()
    assert st.rank == 3 and st.antirank == 1
    assert not st.loopless
    assert Hypergraph(3, [(0, 1)]).stats().loopless
    assert empty.loopless


def test_linearity_predicate():
    assert fano().stats().linear
    assert not Hypergraph(4, [(0, 1, 2), (0, 1, 3)]).stats().linear
    assert Hypergraph(2, [(0,), (0,)]).stats().linear
    assert not Hypergraph(2, [(0, 1), (0, 1)]).stats().linear
    assert Hypergraph(3, []).stats().linear


def test_connected_components():
    # An isolated vertex is a component of its own.
    h = Hypergraph(6, [(0, 1), (1, 2), (4, 5)])
    assert not h.stats().connected
    assert not Hypergraph(3, [(0, 1)]).stats().connected
    assert Hypergraph(3, [(0, 1), (1, 2)]).stats().connected
    assert Hypergraph(3, [(0, 1, 2)]).stats().connected
    assert fano().stats().connected
    assert Hypergraph(0, []).stats().connected
    assert Hypergraph(1, []).stats().connected
    assert not Hypergraph(2, []).stats().connected


def test_connected_matches_a_search_of_the_two_section():
    seen = set()
    inputs = [random_hypergraph_raw(Rng(seed + 5000), 1, 8, 8) for seed in range(200)]
    inputs += [Hypergraph(0, []), Hypergraph(1, []), Hypergraph(1, [(0,), (0,)])]
    for h in inputs:
        connected = brute_connected(h.n, list(h.edges))
        assert h.stats().connected == connected, (h.n, h.edges)
        seen.add("connected" if connected else "disconnected")
        if min(h.degrees(), default=1) == 0:
            seen.add("isolated")
        if not h.stats().loopless:
            seen.add("loop")
        if len(set(h.edges)) < h.m:
            seen.add("duplicate")
    assert seen == {"connected", "disconnected", "isolated", "loop", "duplicate"}


def test_remove_hyperedge_shifts_positions():
    h = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    g = h.remove_hyperedge(1)
    assert g.edges == ((0, 1), (0, 2))
    assert h.m == 3
    with pytest.raises(IndexError):
        h.remove_hyperedge(3)


def test_without_keeps_the_other_positions_in_order():
    h = Hypergraph(4, [(0, 1), (1, 2), (0,), (0, 1), (2, 3)])
    sub = h.without({1, 3})
    assert (sub.n, sub.edges) == (4, ((0, 1), (0,), (2, 3)))
    assert h.without([]) == h
    assert h.without(range(5)) == Hypergraph(4, [])
    with pytest.raises(IndexError):
        h.without({5})
    # Loops and duplicate edges kept or dropped like any other position.
    seen = set()
    for seed in range(200):
        h = random_hypergraph_raw(Rng(seed + 6000))
        rng = Rng(seed + 6500)
        gone = {p for p in range(h.m) if rng.below(3) == 0}
        kept = [e for p, e in enumerate(h.edges) if p not in gone]
        assert h.without(gone) == Hypergraph(h.n, kept)
        if not all(len(e) >= 2 for e in kept):
            seen.add("loop")
        if len(set(kept)) < len(kept):
            seen.add("duplicate")
    assert seen == {"loop", "duplicate"}


def test_remove_hyperedge_monotonicity_properties():
    # Removal never increases max degree, two-section degree, or rank,
    # and never decreases antirank.
    for seed in range(40):
        h = random_hypergraph_raw(Rng(seed))
        if h.m == 0:
            continue
        st = h.stats()
        for i in range(h.m):
            g = h.remove_hyperedge(i)
            gt = g.stats()
            assert gt.max_degree <= st.max_degree
            assert gt.two_section_max_degree <= st.two_section_max_degree
            if g.m:
                assert gt.rank <= st.rank
                assert gt.antirank >= st.antirank


def test_stats_pinned_on_fano():
    st = fano().stats()
    assert (st.n, st.m) == (7, 7)
    assert st.rank == st.antirank == 3
    assert st.max_degree == st.min_degree == 3
    assert st.loopless and st.linear and st.connected
    assert st.uniform_k == 3 and st.regular_d == 3
    assert st.two_section_max_degree == 6


def test_stats_are_computed_once_per_hypergraph():
    h = fano()
    assert h.stats() is h.stats()
    assert h.remove_hyperedge(0).stats() is not h.stats()


def test_stats_internal_consistency():
    for seed in range(60):
        h = random_hypergraph_raw(Rng(seed))
        st = h.stats()
        assert st.two_section_max_degree == brute_two_section_max_degree(h.n, h.edges)
        if st.m:
            assert st.antirank <= st.rank
            assert (st.uniform_k is not None) == (st.antirank == st.rank)
            assert st.loopless == (st.antirank >= 2)
        else:
            assert st.rank is None and st.antirank is None
        assert st.min_degree <= st.max_degree
        assert (st.regular_d is not None) == (st.min_degree == st.max_degree)


def test_stats_invariant_under_edge_permutation_and_relabeling():
    for seed in range(25):
        rng = Rng(seed + 1000)
        h = random_hypergraph_raw(rng)
        st = h.stats()

        edges = list(h.edges)
        rng.shuffle(edges)
        assert Hypergraph(h.n, edges).stats() == st

        relabel = list(range(h.n))
        rng.shuffle(relabel)
        mapped = [tuple(relabel[x] for x in e) for e in h.edges]
        assert Hypergraph(h.n, mapped).stats() == st


def test_two_section_degree_floor_on_loopless_instances():
    # Delta_2 >= (antirank - 1) * max_degree whenever there are no loops.
    for seed in range(60):
        h = random_hypergraph_raw(Rng(seed + 2000), size_lo=2)
        if h.m == 0:
            continue
        st = h.stats()
        assert st.loopless
        assert st.two_section_max_degree >= (st.antirank - 1) * st.max_degree


def test_hyperedge_degree_incidence_sum():
    # d(e) <= sum over x in e of (deg(x) - 1), with equality when linear.
    for seed in range(40):
        h = random_hypergraph_raw(Rng(seed + 3000))
        for i in range(h.m):
            bound = sum(len(h.incident(x)) - 1 for x in h.edges[i])
            assert h.hyperedge_degree(i) <= bound
    for seed in range(10):
        h = random_linear(12, 8, 3, seed)
        for i in range(h.m):
            bound = sum(len(h.incident(x)) - 1 for x in h.edges[i])
            assert h.hyperedge_degree(i) == bound
