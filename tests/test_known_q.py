"""The oracle against chromatic indices known from the literature.

Exact rows must reach their textbook value.  The open rows pin the
brackets the oracle leaves at this budget, so a floor or a start that
closes one shows here as a moved pin, and their widths sum to the score
that better bounds should lower.  The clock is off, so every row is
decided by the node count alone.
"""

from __future__ import annotations

import pytest

from hypercolor import (
    Budget,
    affine_plane,
    chromatic_index,
    complete_graph,
    cycle,
    fano,
    projective_plane,
    steiner_triple,
)

BUDGET = Budget(max_nodes=40_000, time_limit=None)

EXACT = [
    # Even complete graphs are class 1: q(K_n) = n - 1.
    *[(f"K_{n}", lambda n=n: complete_graph(n), n - 1) for n in (8, 10, 12, 16)],
    ("C_9", lambda: cycle(9), 3),
    ("C_10", lambda: cycle(10), 2),
    # Any two lines of a projective plane meet: q = p^2 + p + 1, its lines.
    ("fano", fano, 7),
    *[
        (f"PG(2,{p})", lambda p=p: projective_plane(p), p * p + p + 1)
        for p in (2, 3, 5, 7)
    ],
    # The parallel classes of an affine plane are its color classes.
    *[(f"AG(2,{p})", lambda p=p: affine_plane(p), p + 1) for p in (3, 5, 7, 11)],
    ("STS(9)", lambda: steiner_triple(9), 4),
    ("STS(15)", lambda: steiner_triple(15), 9),
]

# Brackets left open at BUDGET: (lower, upper).
OPEN = [
    ("K_9", lambda: complete_graph(9), (8, 10)),
    ("K_11", lambda: complete_graph(11), (10, 12)),
    ("K_13", lambda: complete_graph(13), (12, 14)),
    ("K_17", lambda: complete_graph(17), (16, 18)),
    ("STS(21)", lambda: steiner_triple(21), (10, 12)),
    ("STS(27)", lambda: steiner_triple(27), (13, 15)),
    ("STS(33)", lambda: steiner_triple(33), (16, 20)),
]


@pytest.mark.parametrize("name,build,q", EXACT, ids=[row[0] for row in EXACT])
def test_exact_rows_reach_their_textbook_value(name, build, q):
    res = chromatic_index(build(), BUDGET)
    assert (res.lower, res.upper) == (q, q), name


@pytest.mark.parametrize("name,build,bracket", OPEN, ids=[row[0] for row in OPEN])
def test_open_brackets_are_pinned(name, build, bracket):
    res = chromatic_index(build(), BUDGET)
    assert (res.lower, res.upper) == bracket, name
    assert res.nodes == BUDGET.max_nodes


def test_open_bracket_widths_sum_to_16():
    assert sum(hi - lo for _, _, (lo, hi) in OPEN) == 16


def test_odd_complete_brackets_hold_their_known_value():
    # An odd K_n is class 2: q = n, from the matching count and Vizing.
    for name, _, (lo, hi) in OPEN:
        if name.startswith("K_"):
            assert lo <= int(name[2:]) <= hi, name
