"""Bounds, condition tags, inequality suite, and the verdict engine."""

from __future__ import annotations

import pytest

from hypercolor import (
    HOLDS,
    UNRESOLVED,
    VIOLATED,
    Budget,
    Coloring,
    Hypergraph,
    OracleResult,
    Rng,
    affine_plane,
    bound_set,
    chromatic_index,
    complete_graph,
    conditions,
    cycle,
    fano,
    inequality_suite,
    is_proper,
    random_linear,
    survey_instance,
    verify_conjecture,
)
from hypercolor import analysis

from brute import brute_chromatic_index, if_chain_conditions, random_hypergraph_raw

FAST = Budget(max_nodes=1_000_000, time_limit=None)


def test_two_section_bound_pins():
    assert bound_set(fano()).two_section == 7
    assert bound_set(Hypergraph(4, [])).two_section == 1
    assert bound_set(cycle(3)).two_section == 3


def test_greedy_bound_pins_and_refusals():
    assert bound_set(fano()).greedy == 7
    assert bound_set(affine_plane(3)).greedy == 10
    assert bound_set(Hypergraph(3, [])).greedy is None
    assert bound_set(Hypergraph(2, [(0,), (0, 1)])).greedy is None


def test_rank_and_edge_degree_bound_pins():
    assert bound_set(fano()).rank_degree == 7
    assert bound_set(fano()).edge_degree == 7
    k4 = complete_graph(4)
    assert bound_set(k4).rank_degree == 5
    assert bound_set(k4).edge_degree == 5
    matching = Hypergraph(4, [(0, 1), (2, 3)])
    assert bound_set(matching).edge_degree == 1
    assert bound_set(Hypergraph(3, [])).rank_degree is None
    assert bound_set(Hypergraph(3, [])).edge_degree is None


def test_exact_values_respect_every_applicable_bound():
    for seed in range(40):
        h = random_hypergraph_raw(Rng(seed + 12_000), 3, 8, 8, 1, 3)
        if h.m == 0:
            continue
        q = chromatic_index(h, FAST).exact
        assert q is not None
        bounds = bound_set(h)
        assert q <= bounds.rank_degree
        assert q <= bounds.edge_degree
        st = h.stats()
        if (
            st.loopless
            and st.antirank * st.antirank > st.two_section_max_degree + 1
        ):
            assert q <= bounds.greedy


def test_condition_tag_pins():
    tri_pendant = conditions(Hypergraph(6, [(0, 1), (1, 2), (0, 2), (2, 3, 4, 5)]))
    assert "THM1" not in tri_pendant
    assert "THM3" in tri_pendant
    assert "RK62" not in tri_pendant

    star5 = conditions(Hypergraph(6, [(0, i) for i in range(1, 6)]))
    assert "THM3" not in star5
    assert "RK62" not in star5

    matching = conditions(Hypergraph(4, [(0, 1), (2, 3)]))
    assert "THM1" in matching
    assert "THM3" in matching
    assert "RK62" in matching

    loopy = conditions(Hypergraph(2, [(0,), (0, 1)]))
    assert "THM1" not in loopy
    assert "THM3" not in loopy

    assert "THM2" in conditions(complete_graph(4))
    assert "THM2" in conditions(affine_plane(3))
    assert "THM2" not in conditions(fano())
    assert "THM2" not in conditions(Hypergraph(3, []))


def _uniform_tags(h: Hypergraph) -> frozenset[str]:
    """The U65_1..U65_4 and OPEN tags, given to linear k-uniform instances."""
    return frozenset(t for t in conditions(h) if t.startswith("U65") or t == "OPEN")


def _tag_table_instances() -> list[Hypergraph]:
    """About 200 seeded instances: loops, duplicates, m = 0, mixed sizes."""
    instances = [
        Hypergraph(0, []),
        Hypergraph(3, []),
        Hypergraph(2, [(0,), (0,)]),
        Hypergraph(4, [(0, 1), (0, 1)]),
        fano(),
        complete_graph(4),
        complete_graph(5),
        affine_plane(3),
        cycle(5),
        Hypergraph(11, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (0, 9, 10)]),
    ]
    for seed in range(192):
        rng = Rng(seed)
        kind = seed % 4
        if kind == 0:
            h = random_hypergraph_raw(rng, size_lo=1)
        elif kind == 1:
            h = random_hypergraph_raw(rng, size_lo=2, size_hi=5)
        elif kind == 2:
            _, h = survey_instance(seed, 0, (5, 12), (1, 10), (2, 3, 4))
        else:
            h = random_hypergraph_raw(rng, m_hi=6)
            h = Hypergraph(h.n, h.edges + h.edges[:2])
        instances.append(h)
    return instances


def test_condition_table_matches_the_if_chain():
    seen = set()
    for h in _tag_table_instances():
        expected = if_chain_conditions(h)
        seen |= expected
        assert verify_conjecture(h, Budget(0, None)).conditions == expected
        assert conditions(h) == expected
    assert seen == {
        "THM1", "THM2", "THM3", "RK61", "RK62",
        "U65_1", "U65_2", "U65_3", "U65_4", "OPEN",
    }


def test_classify_uniform_exact_tag_sets():
    assert _uniform_tags(complete_graph(4)) == frozenset({"U65_1", "U65_2"})
    assert _uniform_tags(complete_graph(5)) == frozenset({"U65_1", "U65_3"})
    assert _uniform_tags(fano()) == frozenset({"U65_2", "U65_4"})
    assert _uniform_tags(affine_plane(3)) == frozenset({"U65_2"})
    star_triples = Hypergraph(
        11, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8), (0, 9, 10)]
    )
    assert _uniform_tags(star_triples) == frozenset({"OPEN"})


def test_classify_uniform_refusals():
    # Only linear k-uniform instances with k >= 2 are classified.
    assert _uniform_tags(Hypergraph(4, [(0, 1), (0, 1)])) == frozenset()
    assert _uniform_tags(Hypergraph(2, [(0,), (1,)])) == frozenset()
    assert _uniform_tags(Hypergraph(4, [(0, 1), (1, 2, 3)])) == frozenset()
    assert _uniform_tags(Hypergraph(3, [])) == frozenset()


def test_inequality_suite_on_design_instances():
    rep = inequality_suite(fano())
    by_name = {c.name: c for c in rep.checks}
    assert rep.all_ok
    assert by_name["two-section-degree-floor"].applicable
    assert by_name["edge-degree-incidence-sum"].applicable
    assert not by_name["uniform-regular-count"].applicable

    rep3 = inequality_suite(affine_plane(3))
    by_name3 = {c.name: c for c in rep3.checks}
    assert rep3.all_ok
    assert by_name3["uniform-regular-count"].applicable
    assert by_name3["uniform-regular-count"].ok


def test_inequality_suite_scopes():
    loopy = Hypergraph(2, [(0,), (0, 1)])
    rep = inequality_suite(loopy)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["two-section-degree-floor"].applicable
    assert by_name["edge-degree-incidence-sum"].applicable
    assert rep.all_ok

    empty = inequality_suite(Hypergraph(3, []))
    assert all(not c.applicable for c in empty.checks)
    assert empty.all_ok


def test_inequality_suite_never_fires_on_random_instances():
    for seed in range(40):
        h = random_hypergraph_raw(Rng(seed + 13_000))
        assert inequality_suite(h).all_ok


def test_verdict_on_design_instances():
    f = verify_conjecture(fano(), FAST)
    assert f.status == HOLDS
    assert f.q_exact == 7
    assert f.bounds.two_section == 7
    assert f.bounds.greedy == 7
    assert f.bounds.rank_degree == 7
    assert f.bounds.edge_degree == 7
    assert f.conditions == frozenset(
        {"THM1", "THM3", "RK61", "RK62", "U65_2", "U65_4"}
    )
    assert f.efl_ok is True
    assert is_proper(fano(), f.witness)
    assert f.witness.q_used == 7

    a = verify_conjecture(affine_plane(3), FAST)
    assert a.status == HOLDS
    assert a.q_exact == 4
    assert a.bounds.two_section == 9
    assert a.conditions == frozenset({"THM1", "THM2", "THM3", "U65_2"})
    assert a.efl_ok is True


def test_verdict_on_empty_hypergraph():
    v = verify_conjecture(Hypergraph(4, []), FAST)
    assert v.status == HOLDS
    assert v.q_exact == 0
    assert v.bounds == type(v.bounds)(
        two_section=1, greedy=None, rank_degree=None, edge_degree=None
    )
    assert v.conditions == frozenset({"THM3"})
    assert v.efl_ok is True
    assert v.oracle_nodes == 0


def test_verdict_flags_violations_from_loops():
    loops = Hypergraph(1, [(0,), (0,)])
    exact = verify_conjecture(loops, FAST)
    assert exact.status == VIOLATED
    assert exact.q_exact == 2
    assert exact.bounds.two_section == 1
    assert exact.bounds.greedy is None
    assert exact.bounds.rank_degree == 2
    assert exact.bounds.edge_degree == 2
    bracketed = verify_conjecture(loops, Budget(0, None))
    assert bracketed.status == VIOLATED
    assert bracketed.q_lower == 2


def test_violation_alarm_cross_examines_the_lower_bound(monkeypatch):
    # A lower end above the bound that first fit beats is a wrong floor,
    # not a violation: cycle(8) has bound 3 and first fit colors it with 2.
    h = cycle(8)
    forged = OracleResult(4, 4, Coloring((1, 2, 3, 4, 1, 2, 3, 4)), 0)
    monkeypatch.setattr(analysis, "chromatic_index", lambda h, budget: forged)
    assert bound_set(h).two_section == 3
    with pytest.raises(RuntimeError, match="lower bound exceeds a constructive"):
        verify_conjecture(h, FAST)


def test_verdict_unresolved_when_bracket_straddles_bound():
    # K_5 sits at the bound, q = 5.  With no node searched, DSATUR's 6
    # colors and the counting floor of 5 straddle it.
    h = complete_graph(5)
    starved = verify_conjecture(h, Budget(0, None))
    assert starved.status == UNRESOLVED
    assert starved.q_exact is None
    assert (starved.q_lower, starved.q_upper) == (5, 6)
    assert starved.efl_ok is None
    assert is_proper(h, starved.witness)

    # 8 nodes do not finish the search, but its TabuCol pass finds 5.
    settled = verify_conjecture(h, Budget(max_nodes=8, time_limit=None))
    assert settled.status == HOLDS
    assert (settled.q_exact, settled.oracle_nodes) == (5, 8)

    full = verify_conjecture(h, FAST)
    assert full.status == HOLDS
    assert full.q_exact == 5
    assert full.efl_ok is True
    assert full.conditions == frozenset({"U65_1", "U65_3"})


def test_constructive_mode_can_still_settle_easy_instances():
    v = verify_conjecture(fano(), Budget(0, None))
    assert v.status == HOLDS
    assert v.q_upper <= 7
    assert v.oracle_nodes == 0
    assert is_proper(fano(), v.witness)


def test_verdicts_are_honest_against_brute_force():
    loops = duplicates = 0
    for seed in range(40):
        h = random_hypergraph_raw(Rng(seed + 14_000), 3, 7, 7, 1, 3)
        loops += not h.stats().loopless
        duplicates += len(set(h.edges)) < h.m
        v = verify_conjecture(h, FAST)
        bf = v.bounds.two_section
        truth = brute_chromatic_index(h.n, list(h.edges))
        assert v.q_exact == truth
        if v.status == VIOLATED:
            assert truth > bf
        else:
            assert v.status == HOLDS
            assert truth <= bf
        assert is_proper(h, v.witness)
        assert v.witness.q_used == v.q_upper
        # At 0 nodes the bracket still holds the truth, and a decided
        # status agrees with it.
        zero = verify_conjecture(h, Budget(0, None))
        assert zero.q_lower <= truth <= zero.q_upper
        assert zero.status in (v.status, UNRESOLVED)
        assert zero.oracle_nodes == 0
        assert is_proper(h, zero.witness)
        assert zero.witness.q_used == zero.q_upper
    assert loops and duplicates


def test_linear_loopless_instances_all_hold():
    for seed in range(30):
        h = random_linear(9, 7, 3, seed + 500)
        v = verify_conjecture(h, FAST)
        assert v.status == HOLDS
        assert v.q_exact is not None
        assert v.q_exact <= v.bounds.two_section
        assert v.efl_ok is True
