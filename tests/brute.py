"""Reference oracles and instance helpers the tests trust.

The colorability searches here are deliberately naive (iterative
deepening over the color count, index-order backtracking) and share no
code with the package's solvers, so agreement between the two is
meaningful evidence.  Inputs are raw (n, edge list) pairs rather than
package types wherever possible.  The reference versions of package
logic (condition tags, core extraction, the oracle's greedy and branch
and bound, the random linear sampler) are the earlier, more literal
forms of that logic, kept to check the current forms against.
"""

from __future__ import annotations

import sys

from hypercolor import (
    Budget,
    CriticalCore,
    GenerationError,
    Hypergraph,
    Rng,
    chromatic_index,
)
from hypercolor.instances import _RETRIES_PER_EDGE
from hypercolor.oracle import _BudgetExhausted, _SearchState, greedy_clique
from hypercolor.transforms import SimpleGraph


def brute_chromatic_number(n: int, edges: list[tuple[int, int]]) -> int:
    """Smallest color count admitting a proper vertex coloring."""
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = [0] * n

    def place(v: int, used: int, k: int) -> bool:
        if v == n:
            return True
        forbidden = {colors[w] for w in adj[v] if colors[w]}
        for c in range(1, min(used + 1, k) + 1):
            if c in forbidden:
                continue
            colors[v] = c
            if place(v + 1, max(used, c), k):
                return True
            colors[v] = 0
        return False

    for k in range(1, n + 1):
        if place(0, 0, k):
            return k
    raise AssertionError("n colors always suffice for n vertices")


def brute_chromatic_index(n: int, hyperedges: list[tuple[int, ...]]) -> int:
    """Smallest color count so intersecting hyperedge positions differ.

    Works straight off the pairwise intersections; it never builds the
    package's line graph.
    """
    m = len(hyperedges)
    if m == 0:
        return 0
    sets = [set(e) for e in hyperedges]
    conflicts = [[j for j in range(i) if sets[i] & sets[j]] for i in range(m)]
    colors = [0] * m

    def place(i: int, used: int, k: int) -> bool:
        if i == m:
            return True
        forbidden = {colors[j] for j in conflicts[i]}
        for c in range(1, min(used + 1, k) + 1):
            if c in forbidden:
                continue
            colors[i] = c
            if place(i + 1, max(used, c), k):
                return True
            colors[i] = 0
        return False

    for k in range(1, m + 1):
        if place(0, 0, k):
            return k
    raise AssertionError("m colors always suffice for m hyperedges")


def brute_two_section(
    n: int, hyperedges: list[tuple[int, ...]]
) -> dict[tuple[int, int], int]:
    """Two-section multiplicities: for each vertex pair x < y lying in some
    hyperedge, the number of hyperedge positions holding both.

    Loops hold no pair, so they add nothing.  The hypergraph is linear iff
    every multiplicity is 1.
    """
    mult = {}
    for x in range(n):
        for y in range(x + 1, n):
            k = sum(x in e and y in e for e in hyperedges)
            if k:
                mult[(x, y)] = k
    return mult


def brute_two_section_max_degree(n: int, hyperedges: list[tuple[int, ...]]) -> int:
    """Maximum vertex degree of the two-section, summing multiplicities."""
    mult = brute_two_section(n, hyperedges)
    return max(
        (sum(k for pair, k in mult.items() if x in pair) for x in range(n)), default=0
    )


def pairwise_line_graph_edges(
    n: int, hyperedges: list[tuple[int, ...]]
) -> list[tuple[int, int]]:
    """Line graph edges (i, j), i < j, sorted, by intersecting every pair of
    positions: the O(m^2) scan the package used before its line graph was
    built from the incidence lists.  n is unused; it keeps the raw-input
    signature of the other references.
    """
    sets = [set(e) for e in hyperedges]
    return [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i] & sets[j]
    ]


def graph_edges(g: SimpleGraph) -> list[tuple[int, int]]:
    """All edges of g as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def random_graph(rng: Rng, n_lo: int, n_hi: int, percent_lo: int = 20,
                 percent_hi: int = 80) -> SimpleGraph:
    """A seeded Erdos-Renyi style simple graph with random density."""
    n = rng.randint(n_lo, n_hi)
    percent = rng.randint(percent_lo, percent_hi)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < percent:
                edges.append((i, j))
    return SimpleGraph(n, edges)


def random_connected_graph(rng: Rng, n_lo: int, n_hi: int,
                           extra_hi: int = 10) -> SimpleGraph:
    """A seeded connected simple graph: random tree plus extra edges."""
    n = rng.randint(n_lo, n_hi)
    edges = set()
    for i in range(1, n):
        edges.add((rng.below(i), i))
    for _ in range(rng.randint(0, extra_hi)):
        i = rng.below(n)
        j = rng.below(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return SimpleGraph(n, sorted(edges))


def random_hypergraph_raw(rng: Rng, n_lo: int = 3, n_hi: int = 10,
                          m_hi: int = 12, size_lo: int = 1,
                          size_hi: int = 4) -> Hypergraph:
    """A seeded unconstrained hypergraph, duplicates and loops possible."""
    n = rng.randint(n_lo, n_hi)
    m = rng.randint(0, m_hi)
    hi = min(size_hi, n)
    lo = min(size_lo, hi)
    edges = []
    for _ in range(m):
        size = rng.randint(lo, hi)
        edges.append(rng.sample_sorted(size, n))
    return Hypergraph(n, edges)


def petersen() -> SimpleGraph:
    """The Petersen graph: outer 5-cycle, inner 5-star, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return SimpleGraph(10, edges)


def bridged_cubic() -> SimpleGraph:
    """A 3-regular graph with a bridge, hence with cut vertices.

    Each half is a near-clique on 5 vertices whose single degree-2
    vertex takes the bridge endpoint.
    """
    gadget = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    edges = list(gadget)
    edges += [(u + 5, v + 5) for u, v in gadget]
    edges.append((4, 9))
    return SimpleGraph(10, edges)


def if_chain_conditions(h: Hypergraph) -> frozenset[str]:
    """Condition tags of h, one if per tag, from invariants computed here."""
    m = len(h.edges)
    sizes = [len(e) for e in h.edges]
    degs = [sum(x in e for e in h.edges) for x in range(h.n)]
    d2 = max(
        (sum(len(e) - 1 for e in h.edges if x in e) for x in range(h.n)), default=0
    )
    dmax = max(degs, default=0)
    loopless = all(size >= 2 for size in sizes)
    linear = all(
        len(set(a) & set(b)) <= 1
        for i, a in enumerate(h.edges)
        for b in h.edges[i + 1 :]
    )
    k = sizes[0] if m and len(set(sizes)) == 1 else None
    regular = degs and len(set(degs)) == 1
    tags = set()
    if m >= 1 and loopless and min(sizes) ** 2 >= d2 + 1:
        tags.add("THM1")
    if m >= 1 and linear and k is not None and k >= 2 and regular and dmax == k + 1:
        tags.add("THM2")
    if loopless and (dmax <= 1 or (dmax - 1) ** 2 <= d2 + 1):
        tags.add("THM3")
    if m >= 1 and loopless and min(sizes) ** 2 > d2 + 1:
        tags.add("RK61")
    if m >= 1 and max(sizes) * (dmax - 1) <= d2:
        tags.add("RK62")
    if m >= 1 and linear and k is not None and k >= 2:
        uniform = set()
        if k == 2:
            uniform.add("U65_1")
        if k * k >= d2 + 1:
            uniform.add("U65_2")
        if d2 == k * k:
            uniform.add("U65_3")
        if k >= 3 and k * (dmax - 1) <= d2:
            uniform.add("U65_4")
        tags |= uniform or {"OPEN"}
    return frozenset(tags)


def rescanning_extract_critical(h: Hypergraph, budget: Budget) -> CriticalCore:
    """Core extraction that rescans from position 0 after every deletion."""
    base = chromatic_index(h, budget)
    if base.exact is None:
        return CriticalCore(h, None, False, ())
    q = base.exact
    cur = h
    original = list(range(h.m))
    removed: list[int] = []
    while True:
        progressed = False
        for i in range(cur.m):
            candidate = cur.remove_hyperedge(i)
            sub = chromatic_index(candidate, budget)
            if sub.exact is None:
                return CriticalCore(cur, q, False, tuple(removed))
            if sub.exact == q:
                removed.append(original.pop(i))
                cur = candidate
                progressed = True
                break
        if not progressed:
            return CriticalCore(cur, q, True, tuple(removed))


def rebuilding_dsatur_greedy(g: SimpleGraph) -> list[int]:
    """DSATUR greedy rebuilding every saturation set at every step."""
    n = g.n
    colors = [0] * n
    for _ in range(n):
        pick, pick_key = -1, (-1, -1, 0)
        for v in range(n):
            if colors[v]:
                continue
            sat = len({colors[w] for w in g.adj[v] if colors[w]})
            key = (sat, len(g.adj[v]), -v)
            if key > pick_key:
                pick, pick_key = v, key
        used = {colors[w] for w in g.adj[pick]}
        c = 1
        while c in used:
            c += 1
        colors[pick] = c
    return colors


def recursive_component_chromatic(
    g: SimpleGraph, state: _SearchState
) -> tuple[int, int, list[int]]:
    """The oracle's branch and bound as a recursion over set rebuilds.

    Same contract as hypercolor.oracle._component_chromatic, and it must
    visit the same nodes in the same order.
    """
    n = g.n
    greedy = rebuilding_dsatur_greedy(g)
    best_count = max(greedy)
    best = list(greedy)
    clique = greedy_clique(g)
    lb = len(clique)
    if lb == best_count:
        return lb, best_count, best

    colors = [0] * n
    for idx, v in enumerate(clique):
        colors[v] = idx + 1
    adj = g.adj
    uncolored = n - len(clique)

    def descend(used: int) -> None:
        nonlocal best_count, best, uncolored
        state.tick()
        if uncolored == 0:
            if used < best_count:
                best_count = used
                best = colors.copy()
            return
        pick, pick_key = -1, (-1, -1, 0)
        for v in range(n):
            if colors[v] == 0:
                sat = len({colors[w] for w in adj[v] if colors[w]})
                key = (sat, len(adj[v]), -v)
                if key > pick_key:
                    pick, pick_key = v, key
        v = pick
        forbidden = {colors[w] for w in adj[v]}
        limit = min(used + 1, best_count - 1)
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            colors[v] = c
            uncolored -= 1
            descend(max(used, c))
            uncolored += 1
            colors[v] = 0
            if best_count == lb:
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 1000))
    try:
        descend(len(clique))
    except _BudgetExhausted:
        return lb, best_count, best
    finally:
        sys.setrecursionlimit(old_limit)
    return best_count, best_count, best


def rejection_random_linear(n: int, m: int, k: int, seed: int) -> Hypergraph:
    """The pairwise-set form of ``random_linear``: every draw is checked
    against every chosen edge, and each edge gets the full retry cap.
    """
    if k < 2:
        raise GenerationError(f"linear family needs k >= 2, got {k}")
    if k > n:
        raise GenerationError(f"edge size {k} exceeds vertex count {n}")
    if m < 0:
        raise GenerationError("edge count must be non-negative")
    rng = Rng(seed)
    chosen: list[tuple[int, ...]] = []
    chosen_sets: list[set[int]] = []
    for _ in range(m):
        for _attempt in range(_RETRIES_PER_EDGE):
            cand = rng.sample_sorted(k, n)
            cset = set(cand)
            if all(len(cset & other) <= 1 for other in chosen_sets):
                chosen.append(cand)
                chosen_sets.append(cset)
                break
        else:
            raise GenerationError(
                f"could not place edge {len(chosen) + 1} of {m} "
                f"(n={n}, k={k}): retry cap hit"
            )
    return Hypergraph(n, chosen)
