"""Instance families, the deterministic RNG, and family-label parsing."""

from __future__ import annotations

import subprocess
import sys
from itertools import combinations

import pytest

from hypercolor import (
    FamilySpec,
    GenerationError,
    Hypergraph,
    Rng,
    affine_plane,
    complete_graph,
    cycle,
    derive_seed,
    fano,
    generate,
    parse_family,
    projective_plane,
    random_hypergraph,
    random_linear,
    steiner_triple,
    survey_instance,
)
from hypercolor.instances import _RETRIES_PER_EDGE, _has_clique

from brute import rejection_random_linear


def test_rng_is_deterministic_and_survives_zero_seed():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    z = Rng(0)
    first = z.next_u64()
    assert first != 0
    assert Rng(0).next_u64() == first


def test_rng_below_and_randint_ranges():
    rng = Rng(7)
    draws = [rng.below(10) for _ in range(2000)]
    assert all(0 <= d < 10 for d in draws)
    assert sorted(set(draws)) == list(range(10))
    assert all(3 <= rng.randint(3, 5) <= 5 for _ in range(100))
    assert rng.randint(4, 4) == 4
    with pytest.raises(ValueError):
        rng.below(0)
    # One 64-bit draw covers at most 2**64 values; a wider bound used to
    # reject every draw and loop forever.
    assert 0 <= rng.below(1 << 64) < 1 << 64
    for n in (2**64 + 1, 2**65):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            rng.below(n)
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_rng_sample_and_shuffle():
    rng = Rng(9)
    s = rng.sample_sorted(4, 10)
    assert len(s) == 4
    assert list(s) == sorted(set(s))
    assert all(0 <= x < 10 for x in s)
    assert rng.sample_sorted(0, 5) == ()
    assert rng.sample_sorted(5, 5) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        rng.sample_sorted(6, 5)
    items = list(range(20))
    Rng(11).shuffle(items)
    assert sorted(items) == list(range(20))
    again = list(range(20))
    Rng(11).shuffle(again)
    assert again == items


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)
    assert len({derive_seed(7, i) for i in range(2000)}) == 2000


def test_complete_graph_and_cycle():
    k4 = complete_graph(4)
    assert k4.edges == tuple(combinations(range(4), 2))
    assert complete_graph(1).m == 0
    with pytest.raises(GenerationError):
        complete_graph(0)
    c5 = cycle(5)
    assert c5.m == 5
    assert all(d == 2 for d in c5.degrees())
    assert cycle(3).edges == ((0, 1), (1, 2), (0, 2))
    with pytest.raises(GenerationError):
        cycle(2)


def _pairs_covered_once(h: Hypergraph) -> bool:
    seen = set()
    for e in h.edges:
        for pair in combinations(e, 2):
            if pair in seen:
                return False
            seen.add(pair)
    return seen == set(combinations(range(h.n), 2))


def test_fano_is_the_seven_point_triple_system():
    h = fano()
    st = h.stats()
    assert (st.n, st.m) == (7, 7)
    assert st.uniform_k == 3
    assert st.regular_d == 3
    assert st.linear and st.loopless and st.connected
    assert st.two_section_max_degree == 6
    assert _pairs_covered_once(h)


def test_affine_planes():
    assert sorted(affine_plane(2).edges) == sorted(combinations(range(4), 2))
    a3 = affine_plane(3)
    st = a3.stats()
    assert (st.n, st.m) == (9, 12)
    assert st.uniform_k == 3
    assert st.regular_d == 4
    assert st.linear
    assert _pairs_covered_once(a3)
    with pytest.raises(GenerationError):
        affine_plane(4)
    with pytest.raises(GenerationError):
        affine_plane(1)


def test_projective_planes():
    p2 = projective_plane(2)
    st = p2.stats()
    assert (st.n, st.m) == (7, 7)
    assert st.uniform_k == 3 and st.regular_d == 3
    assert _pairs_covered_once(p2)
    p3 = projective_plane(3)
    st3 = p3.stats()
    assert (st3.n, st3.m) == (13, 13)
    assert st3.uniform_k == 4 and st3.regular_d == 4
    assert st3.linear
    assert st3.two_section_max_degree == 12
    assert _pairs_covered_once(p3)
    with pytest.raises(GenerationError):
        projective_plane(6)


def test_steiner_triple_systems():
    s9 = steiner_triple(9)
    st = s9.stats()
    assert (st.n, st.m) == (9, 12)
    assert st.uniform_k == 3 and st.regular_d == 4
    assert _pairs_covered_once(s9)
    s15 = steiner_triple(15)
    assert s15.m == 35
    assert s15.stats().regular_d == 7
    assert _pairs_covered_once(s15)
    for bad in (6, 7, 11, 0):
        with pytest.raises(GenerationError):
            steiner_triple(bad)


def test_random_linear_properties():
    for seed in range(20):
        h = random_linear(10, 8, 3, seed)
        assert h.m == 8
        assert all(len(e) == 3 for e in h.edges)
        assert h.stats().linear
        assert len(set(h.edges)) == h.m
    assert random_linear(6, 4, 2, 1) == random_linear(6, 4, 2, 1)
    assert random_linear(6, 4, 2, 1) != random_linear(6, 4, 2, 2)
    with pytest.raises(GenerationError):
        random_linear(4, 100, 2, 0)
    with pytest.raises(GenerationError):
        random_linear(5, 2, 1, 0)
    with pytest.raises(GenerationError):
        random_linear(3, 1, 4, 0)
    with pytest.raises(GenerationError):
        random_linear(5, -1, 2, 0)


def _outcome(generator, *args):
    """The edges a generator returns, or the text of its GenerationError."""
    try:
        return generator(*args).edges
    except GenerationError as exc:
        return str(exc)


def test_random_linear_matches_the_rejection_reference(monkeypatch):
    rng = Rng(2024)
    outcomes = set()
    for n in range(2, 21):
        for k in range(2, min(5, n) + 1):
            budget = (n * (n - 1) // 2) // (k * (k - 1) // 2)
            for _ in range(3):
                args = (n, rng.randint(1, budget + 2), k, rng.below(1 << 32))
                got = _outcome(random_linear, *args)
                assert got == _outcome(rejection_random_linear, *args), args
                outcomes.add(got.partition(": ")[2] if isinstance(got, str) else "placed")
    # Both failure reasons occur, each confirmed by the reference's scan of
    # every k-set.
    assert outcomes == {
        "placed", "retry cap hit", "no k-set avoids the used vertex pairs"
    }

    draws = [0]
    sample_sorted = Rng.sample_sorted

    def counted(self, k, n):
        draws[0] += 1
        return sample_sorted(self, k, n)

    monkeypatch.setattr(Rng, "sample_sorted", counted)

    def draws_of(generator, *args):
        draws[0] = 0
        message = _outcome(generator, *args)
        return message, draws[0]

    # K_4 holds six pairs: the seventh edge fits nowhere, which is proved
    # after its first rejected draw instead of after the whole cap.
    message, fast = draws_of(random_linear, 4, 100, 2, 0)
    assert message == (
        "could not place edge 7 of 100 (n=4, k=2): no k-set avoids the used vertex pairs"
    )
    assert fast < 50
    ref_message, ref_draws = draws_of(rejection_random_linear, 4, 100, 2, 0)
    assert ref_message == message and ref_draws >= _RETRIES_PER_EDGE
    # A free 4-set is left, so the failure here is only unlikely, not
    # provable: the last edge spends the whole cap, as the reference does.
    message, slow = draws_of(random_linear, 12, 9, 4, 4)
    assert message == "could not place edge 9 of 9 (n=12, k=4): retry cap hit"
    assert slow >= _RETRIES_PER_EDGE
    assert draws_of(rejection_random_linear, 12, 9, 4, 4) == (message, slow)


def test_packing_full_search_matches_brute_force():
    rng = Rng(77)
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 10)
        k = rng.randint(2, 5)
        percent = rng.randint(10, 95)
        free = [0] * n
        for a, b in combinations(range(n), 2):
            if rng.below(100) < percent:
                free[a] |= 1 << b
                free[b] |= 1 << a
        expected = any(
            all(free[a] >> b & 1 for a, b in combinations(c, 2))
            for c in combinations(range(n), k)
        )
        assert _has_clique(free, (1 << n) - 1, k) == expected, (n, k, free)
        seen.add(expected)
    assert seen == {True, False}


def test_random_hypergraph_properties():
    for seed in range(20):
        h = random_hypergraph(9, 7, (1, 4), seed)
        assert h.m == 7
        assert all(1 <= len(e) <= 4 for e in h.edges)
    assert random_hypergraph(9, 7, (2, 3), 5) == random_hypergraph(9, 7, (2, 3), 5)
    with pytest.raises(GenerationError):
        random_hypergraph(9, 7, (0, 3), 5)
    with pytest.raises(GenerationError):
        random_hypergraph(9, 7, (3, 2), 5)
    with pytest.raises(GenerationError):
        random_hypergraph(4, 2, (2, 5), 5)
    with pytest.raises(GenerationError):
        random_hypergraph(4, -2, (2, 3), 5)


def test_generate_dispatch_and_missing_parameters():
    assert generate(FamilySpec("fano")) == fano()
    assert generate(FamilySpec("complete-graph", n=4)) == complete_graph(4)
    assert generate(FamilySpec("cycle", n=5)) == cycle(5)
    assert generate(FamilySpec("affine-plane", order=3)) == affine_plane(3)
    assert generate(FamilySpec("projective-plane", order=2)) == projective_plane(2)
    assert generate(FamilySpec("steiner-triple", n=9)) == steiner_triple(9)
    assert generate(
        FamilySpec("random-linear", n=8, m=5, k=3, seed=4)
    ) == random_linear(8, 5, 3, 4)
    assert generate(
        FamilySpec("random", n=8, m=5, size_min=2, size_max=4, seed=4)
    ) == random_hypergraph(8, 5, (2, 4), 4)
    for broken in (
        FamilySpec("complete-graph"),
        FamilySpec("cycle"),
        FamilySpec("affine-plane"),
        FamilySpec("projective-plane"),
        FamilySpec("steiner-triple"),
        FamilySpec("random-linear", n=8, m=5),
        FamilySpec("random", n=8),
        FamilySpec("mystery"),
    ):
        with pytest.raises(GenerationError):
            generate(broken)


def test_parse_family_round_trips_labels():
    labels = [
        "fano",
        "complete-graph:6",
        "cycle:9",
        "affine-plane:3",
        "projective-plane:2",
        "steiner-triple:15",
        "random-linear:n=8,m=5,k=3,seed=4",
        "random:n=8,m=5,sizes=2-4,seed=4",
        "random-linear:n=8,m=5,k=3",
        "random:n=8,m=5",
    ]
    for label in labels:
        spec = parse_family(label)
        assert spec.label() == label
        generate(spec)


def test_parse_family_defaults_and_spaces():
    spec = parse_family("random: n=8, m=5")
    assert (spec.n, spec.m) == (8, 5)
    assert spec.seed is None
    assert parse_family("random:n=8,m=5,sizes=3").size_max == 3


def test_parse_family_rejections():
    bad = [
        "fano:3",
        "complete-graph:x",
        "cycle:",
        "steiner-triple:abc",
        "affine-plane:p",
        "tesseract:4",
        "random-linear:n=8,m=5,k=3,extra=1",
        "random-linear:n=8;m=5",
        "random-linear:n=8,m=5,sizes=2-3",
        "random:n=8,m=5,k=3",
        "random:n=8,m=5,sizes=big",
        "random:n=8,m=five",
        "random-linear:n=5,n=9,m=3,k=2,seed=1",
        "random:n=5,m=3,sizes=2-3,sizes=1-1",
        # int() reads these; integers from outside are ASCII decimal digits.
        "complete-graph:5_0",
        "cycle:\u0663",
        "random-linear:n=8,m=5,k=3,seed=+1",
    ]
    for text in bad:
        with pytest.raises(GenerationError):
            parse_family(text)


def test_survey_instance_is_a_pure_function_of_its_arguments():
    args = (42, 3, (6, 12), (4, 16), (2, 3, 4))
    spec1, h1 = survey_instance(*args)
    spec2, h2 = survey_instance(*args)
    assert spec1 == spec2
    assert h1 == h2
    assert generate(spec1) == h1
    assert parse_family(spec1.label()) == spec1


def test_survey_instances_sit_inside_the_requested_ranges():
    for index in range(30):
        spec, h = survey_instance(99, index, (6, 12), (4, 16), (2, 3, 4))
        assert 6 <= spec.n <= 12
        assert 1 <= spec.m <= 16
        assert spec.k in (2, 3, 4)
        assert h.n == spec.n
        assert h.m == spec.m
        assert h.stats().linear
        assert all(len(e) == spec.k for e in h.edges)


def test_survey_instance_clamps_impossible_requests():
    spec, h = survey_instance(42, 0, (2, 2), (3, 3), (5,))
    assert spec.k == 2
    assert spec.m == 1
    assert h.m == 1
    tight, ht = survey_instance(42, 0, (4, 4), (50, 50), (3,))
    assert tight.m <= 2
    assert ht.stats().linear


def test_survey_instance_refuses_input_it_cannot_sample():
    # Each of these used to loop forever or fail on a division deep in
    # the sampler, except the m range from 0, which was quietly raised to
    # 1 though the CLI refuses it; they run in a child so that a hang
    # fails the test.
    script = """
from hypercolor import GenerationError, survey_instance
for args in [
    ((1, 1), (1, 1), (2,)),
    ((0, 8), (4, 6), (3,)),
    ((6, 8), (4, 6), (1,)),
    ((6, 8), (4, 6), (3, -2)),
    ((8, 6), (4, 6), (3,)),
    ((6, 8), (6, 4), (3,)),
    ((6, 8), (4, 6), ()),
    ((6, 8), (0, 4), (3,)),
    ((2, 2**64 + 2), (4, 6), (3,)),
    ((6, 8), (1, 2**64 + 1), (3,)),
]:
    try:
        survey_instance(0, 0, *args)
    except GenerationError:
        continue
    raise SystemExit(f"accepted {args}")
print("refused all")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "refused all\n", "")
