"""Reference oracles and instance helpers the tests trust.

The colorability searches here are deliberately naive (iterative
deepening over the color count, index-order backtracking) and share no
code with the package's solvers, so agreement between the two is
meaningful evidence.  Inputs are raw (n, edge list) pairs rather than
package types wherever possible; the package colors hyperedges only, so
a simple graph reaches it as graph_hypergraph(n, edges), whose line
graph it is.  The reference versions of package logic (condition tags,
the criticality table, core extraction, the first-fit hyperedge colorer,
the oracle's greedy coloring, greedy clique, node counter, branch and
bound and drop search, the random linear sampler and its k-set draw,
the survey's restart rule, the per-token file parser, the degree counts
of the inequality suite) are the earlier, more literal forms of that
logic, kept to check the current forms against.
counting_searches spies on the oracle's calls, and counting_builds on
the package's cached facts.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Sequence

from hypercolor import (
    Budget,
    Coloring,
    CriticalCore,
    CriticalityReport,
    EdgeCriticality,
    FamilySpec,
    GenerationError,
    HgrParseError,
    Hypergraph,
    InequalityCheck,
    InequalityReport,
    Rng,
    chromatic_index,
    derive_seed,
    random_linear,
)
from hypercolor import oracle
from hypercolor.hgr import integer
from hypercolor.instances import _RETRIES_PER_EDGE, _check_survey_input
from hypercolor.oracle import _SearchState, greedy_clique
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


def brute_connected(n: int, hyperedges: list[tuple[int, ...]]) -> bool:
    """Whether a breadth-first search over the two-section's pairs reaches
    every vertex from vertex 0; an isolated vertex is a component of its
    own, and n <= 1 counts as connected.
    """
    pairs = brute_two_section(n, hyperedges)
    reached = {0} if n else set()
    frontier = list(reached)
    while frontier:
        x = frontier.pop(0)
        for y in range(n):
            if y not in reached and (min(x, y), max(x, y)) in pairs:
                reached.add(y)
                frontier.append(y)
    return len(reached) == n


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


def brute_line_graph_components(hyperedges: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The positions of each component of the pairwise line graph,
    ascending, the components by their smallest position: every position
    takes the smallest label of an intersecting one until none changes."""
    pairs = pairwise_line_graph_edges(0, hyperedges)
    label = list(range(len(hyperedges)))
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    groups: dict[int, list[int]] = {}
    for pos, root in enumerate(label):
        groups.setdefault(root, []).append(pos)
    return [tuple(group) for group in groups.values()]


def graph_edges(g: SimpleGraph) -> list[tuple[int, int]]:
    """All edges of g as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def sorted_adjacency(
    n: int, edges: list[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """The ascending neighbour rows of the simple graph (n, edges)."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    return tuple(tuple(sorted(row)) for row in rows)


def graph_hypergraph(n: int, edges: list[tuple[int, int]]) -> Hypergraph:
    """A hypergraph whose line graph is the simple graph (n, edges), with
    position i standing for vertex i.

    Hyperedge i holds a private vertex i, so it is never empty, and one
    vertex n + k for each edge k at i, which lies in exactly the two
    hyperedges of edge k's ends; an edge listed twice, in either order,
    counts once.  So two positions meet iff their vertices are adjacent,
    and every vertex has degree 1 or 2.  A component of the line graph
    with an edge has a greedy clique of 2 or more, so the oracle's
    maximum-degree floor never moves a bracket here: chromatic_index on
    this hypergraph is the chromatic number of the graph, with the same
    bracket, witness and node count.
    """
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    hyperedges = [[i] for i in range(n)]
    for k, (u, v) in enumerate(pairs):
        hyperedges[u].append(n + k)
        hyperedges[v].append(n + k)
    return Hypergraph(n + len(pairs), hyperedges)


def random_graph(rng: Rng, n_lo: int, n_hi: int, percent_lo: int = 20,
                 percent_hi: int = 80) -> tuple[int, list[tuple[int, int]]]:
    """A seeded Erdos-Renyi style simple graph with random density, as
    (n, edges) with each edge (i, j), i < j, in sorted order."""
    n = rng.randint(n_lo, n_hi)
    percent = rng.randint(percent_lo, percent_hi)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < percent:
                edges.append((i, j))
    return n, edges


def random_connected_graph(rng: Rng, n_lo: int, n_hi: int,
                           extra_hi: int = 10) -> tuple[int, list[tuple[int, int]]]:
    """A seeded connected simple graph, random tree plus extra edges, as
    (n, edges) with each edge (i, j), i < j, in sorted order."""
    n = rng.randint(n_lo, n_hi)
    edges = set()
    for i in range(1, n):
        edges.add((rng.below(i), i))
    for _ in range(rng.randint(0, extra_hi)):
        i = rng.below(n)
        j = rng.below(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


def below_sample_sorted(rng: Rng, k: int, n: int) -> tuple[int, ...]:
    """The set form of ``Rng.sample_sorted``: ``rng.below(n)`` until k
    distinct values are drawn, ascending."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n}")
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.add(rng.below(n))
    return tuple(sorted(chosen))


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
        edges.append(below_sample_sorted(rng, size, n))
    return Hypergraph(n, edges)


def petersen() -> tuple[int, list[tuple[int, int]]]:
    """The Petersen graph: outer 5-cycle, inner 5-star, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return 10, edges


def bridged_cubic() -> tuple[int, list[tuple[int, int]]]:
    """A 3-regular graph with a bridge, hence with cut vertices.

    Each half is a near-clique on 5 vertices whose single degree-2
    vertex takes the bridge endpoint.
    """
    gadget = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    edges = list(gadget)
    edges += [(u + 5, v + 5) for u, v in gadget]
    edges.append((4, 9))
    return 10, edges


def gadget_join(d: int) -> tuple[int, list[tuple[int, int]]]:
    """A d-regular graph (d even) whose cut vertex is on no bridge.

    Vertex 0 is joined to both ends a, b of the missing edge in each of
    d / 2 copies of K_{d+1} minus the edge ab.
    """
    edges = []
    for copy in range(d // 2):
        verts = range(1 + copy * (d + 1), 1 + (copy + 1) * (d + 1))
        a, b = verts[0], verts[1]
        edges += [(u, v) for u, v in combinations(verts, 2) if (u, v) != (a, b)]
        edges += [(0, a), (0, b)]
    return 1 + d // 2 * (d + 1), edges


def brute_cut_vertices(g: SimpleGraph) -> set[int]:
    """Vertices whose removal leaves more components than g has, each
    count a flood fill over g's rows."""

    def components(skip: int) -> int:
        seen = {skip}
        count = 0
        for start in range(g.n):
            if start in seen:
                continue
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for w in g.adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

    base = components(-1)
    return {x for x in range(g.n) if components(x) > base}


def low_point_cut_vertex(adj: tuple[tuple[int, ...], ...]) -> Optional[int]:
    """A cut vertex of the connected graph with ascending rows adj, or None
    if it has none: Hopcroft and Tarjan's low points, from vertex 0 with
    neighbours taken ascending.  A non-root u is a cut vertex once a
    finished child's subtree reaches nothing above u; the root is one when
    its first child's subtree misses a vertex.  The first cut vertex it
    finds is the one coloring._cut_vertex finds on a regular graph."""
    n = len(adj)
    num = [0] * n
    low = [0] * n
    num[0] = low[0] = counter = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not num[w]:
                counter += 1
                num[w] = low[w] = counter
                stack.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], num[w])
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if u == 0:
                return 0 if counter < n else None
            if low[v] >= num[u]:
                return u
            low[u] = min(low[u], low[v])
    return None


def class_colorable(h: Hypergraph, k: int) -> bool:
    """True iff the hyperedges of h split into k matchings, by a search
    over whole colour classes that shares nothing with the oracle.

    Without loss of generality each class is a maximal matching of the
    edges left and holds the lowest of them: moving edges into earlier
    classes keeps a k-colouring.  A branch is cut when the edges left
    outnumber the classes left times floor(|W| / a), the most edges one
    matching of them can hold, for W the vertices they cover and a their
    smallest size.
    """
    verts = [sum(1 << v for v in e) for e in h.edges]
    meets = [sum(1 << j for j in range(h.m) if verts[i] & verts[j]) for i in range(h.m)]

    def positions(mask: int) -> list[int]:
        return [i for i in range(h.m) if mask >> i & 1]

    def classes(free: int, used: int, chosen: int, left: int):
        # The maximal matchings of left that hold chosen, whose vertices
        # are used, and any of free, the edges of left that miss them.
        if not free:
            if all(verts[j] & used for j in positions(left & ~chosen)):
                yield chosen
            return
        i = (free & -free).bit_length() - 1
        yield from classes(free & ~meets[i], used | verts[i], chosen | 1 << i, left)
        yield from classes(free & ~(1 << i), used, chosen, left)

    def split(left: int, k: int) -> bool:
        if not left:
            return True
        edges = positions(left)
        cover = 0
        for i in edges:
            cover |= verts[i]
        least = min(len(h.edges[i]) for i in edges)
        if len(edges) > k * (cover.bit_count() // least):
            return False
        i = edges[0]
        return any(
            split(left & ~cls, k - 1)
            for cls in classes(left & ~meets[i], verts[i], 1 << i, left)
        )

    return split((1 << h.m) - 1, k)


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


def counted_edge_degrees(h: Hypergraph) -> list[int]:
    """Each position's hyperedge degree, counted pair by pair: the other
    positions whose hyperedge shares a vertex with it, duplicates each
    counted."""
    return [
        sum(1 for j, b in enumerate(h.edges) if j != i and set(a) & set(b))
        for i, a in enumerate(h.edges)
    ]


def counted_inequality_suite(h: Hypergraph) -> InequalityReport:
    """inequality_suite from degrees counted here: vertex degrees edge by
    edge, hyperedge degrees by counted_edge_degrees.  The other invariants
    are h.stats()'s."""
    st = h.stats()
    degs = [sum(x in e for e in h.edges) for x in range(h.n)]
    edge_degs = counted_edge_degrees(h)
    checks = []
    if st.m >= 1 and st.loopless:
        floor = InequalityCheck(
            "two-section-degree-floor",
            True,
            st.two_section_max_degree >= (st.antirank - 1) * st.max_degree,
            f"{st.two_section_max_degree} >= ({st.antirank} - 1) * {st.max_degree}",
        )
    else:
        floor = InequalityCheck("two-section-degree-floor", False, True, "needs m >= 1 and no loops")
    checks.append(floor)
    if st.m >= 1:
        worst = ""
        for i, e in enumerate(h.edges):
            bound = sum(degs[x] - 1 for x in e)
            if edge_degs[i] > bound or (st.linear and edge_degs[i] != bound):
                worst = f"; position {i}: degree {edge_degs[i]} vs sum {bound}"
                break
        required = "yes" if st.linear else "no"
        checks.append(InequalityCheck(
            "edge-degree-incidence-sum",
            True,
            not worst,
            f"checked {h.m} positions, equality required: {required}{worst}",
        ))
    else:
        checks.append(InequalityCheck("edge-degree-incidence-sum", False, True, "needs m >= 1"))
    k = st.uniform_k
    if st.linear and k is not None and k >= 2 and st.regular_d == k + 1:
        count_ok = k * st.m == (k + 1) * st.n
        d2_ok = st.two_section_max_degree == k * k - 1
        deg_ok = all(d == k * k for d in edge_degs)
        checks.append(InequalityCheck(
            "uniform-regular-count",
            True,
            count_ok and d2_ok and deg_ok,
            f"k*m={k * st.m} vs (k+1)*n={(k + 1) * st.n}, "
            f"Delta_2={st.two_section_max_degree} vs k^2-1={k * k - 1}, "
            f"hyperedge degrees all k^2={k * k}: {'yes' if deg_ok else 'no'}",
        ))
    else:
        checks.append(InequalityCheck(
            "uniform-regular-count", False, True, "needs linear k-uniform (k+1)-regular"
        ))
    return InequalityReport(tuple(checks))


def searching_criticality_report(h: Hypergraph, budget: Budget) -> CriticalityReport:
    """The criticality table that searches every row from scratch.

    One chromatic_index call for the base q and one per hyperedge, with no
    certificate and no starting coloring.  A row's call is the one the
    package makes: h without the row, asked whether q - 1 colors do, so a
    row decided here is decided by the same search there.  It extracts no
    core.
    """
    base = chromatic_index(h, budget)
    if base.exact is None:
        return CriticalityReport(None, (), False, True, None)
    q = base.exact
    entries = []
    complete = True
    lemma_ok = True
    for i in range(h.m):
        deg = h.hyperedge_degree(i)
        sub = chromatic_index(h, budget, without={i}, target=q - 1)
        if sub.lower < q <= sub.upper:
            entries.append(EdgeCriticality(i, deg, None, None))
            complete = False
            continue
        crit = sub.upper < q
        entries.append(EdgeCriticality(i, deg, q - crit, crit))
        if crit and not q - 1 <= deg:
            lemma_ok = False
    return CriticalityReport(q, tuple(entries), complete, lemma_ok, None)


def rescanning_extract_critical(h: Hypergraph, budget: Budget) -> CriticalCore:
    """Core extraction that rescans from position 0 after every deletion."""
    base = chromatic_index(h, budget)
    if base.exact is None:
        return CriticalCore(h, False, ())
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
                return CriticalCore(cur, False, tuple(removed))
            if sub.exact == q:
                removed.append(original.pop(i))
                cur = candidate
                progressed = True
                break
        if not progressed:
            return CriticalCore(cur, True, tuple(removed))


def vertex_set_greedy_color(
    h: Hypergraph, order: str = "desc-degree", seed: Optional[int] = None
) -> Coloring:
    """greedy_color in its per-vertex form: each vertex keeps the set of
    colors on its hyperedges, a position avoids the union of its vertices'
    sets, and hyperedge degrees come from a union of incidence lists, with
    no line graph."""
    positions = list(range(h.m))
    if order == "desc-degree":
        degs = []
        for i in positions:
            met = set()
            for v in h.edges[i]:
                met.update(h.incident(v))
            met.discard(i)
            degs.append(len(met))
        positions.sort(key=lambda i: (-degs[i], i))
    elif order == "random":
        Rng(seed if seed is not None else 0).shuffle(positions)
    at_vertex: list[set[int]] = [set() for _ in range(h.n)]
    colors = [0] * h.m
    for pos in positions:
        forbidden: set[int] = set()
        for v in h.edges[pos]:
            forbidden |= at_vertex[v]
        c = 1
        while c in forbidden:
            c += 1
        colors[pos] = c
        for v in h.edges[pos]:
            at_vertex[v].add(c)
    return Coloring(tuple(colors))


def _active_vertices(g: SimpleGraph, active: Optional[int]) -> list[int]:
    """The vertices of g whose ranks are in the mask active (all when
    None), ascending."""
    if active is None:
        return list(range(g.n))
    return sorted(v for v in range(g.n) if active >> g.rank[v] & 1)


def set_greedy_clique(g: SimpleGraph, active: Optional[int] = None) -> list[int]:
    """The oracle's greedy clique in its set-based form: every active
    vertex a candidate at the start, a neighbour set per vertex, the first
    pick the candidate of the largest degree in g, and each later pick the
    candidate with the most neighbours among the candidates, the lowest
    number on ties."""
    adj_sets = [set(nb) for nb in g.adj]
    cand = set(_active_vertices(g, active))
    clique: list[int] = []
    if cand:
        pick = max(cand, key=lambda v: (len(adj_sets[v]), -v))
        clique.append(pick)
        cand &= adj_sets[pick]
    while cand:
        pick = max(cand, key=lambda v: (len(adj_sets[v] & cand), -v))
        clique.append(pick)
        cand &= adj_sets[pick]
    return clique


def rebuilding_dsatur_greedy(g: SimpleGraph, active: Optional[int] = None) -> list[int]:
    """DSATUR greedy on the active vertices, rebuilding every saturation
    set at every step; ties go to the larger degree in g, then the lower
    number.  The colors are by vertex, 0 off active."""
    vertices = _active_vertices(g, active)
    colors = [0] * g.n
    for _ in vertices:
        pick, pick_key = -1, (-1, -1, 0)
        for v in vertices:
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


class _BudgetExhausted(Exception):
    pass


def _tick(state: _SearchState) -> None:
    """Count one node of the recursive search against the shared budget,
    as the oracle's loop counts it: a spent budget refuses before it
    counts."""
    if state.nodes >= state._max_nodes:
        raise _BudgetExhausted
    state.nodes += 1


def counting_floor(edges: Sequence[tuple[int, ...]]) -> int:
    """The overfull bound ceil(m / floor(|W| / a)) on the chromatic index
    of the hyperedges given, W the vertices they cover and a their
    smallest size: no color class holds more than floor(|W| / a) of them."""
    covered = set().union(*edges)
    per_class = len(covered) // min(len(e) for e in edges)
    return -(-len(edges) // per_class)


def recursive_component_chromatic(
    g: SimpleGraph,
    edges: Sequence[tuple[int, ...]],
    active: int,
    state: _SearchState,
    target: Optional[int],
    witness: list[int],
    droppable: int = 0,
    prove: Optional[Callable[[int, dict[int, int]], int]] = None,
) -> tuple[int, int]:
    """The oracle's branch and bound as a recursion over set rebuilds.

    Same contract as hypercolor.oracle._component_chromatic, and it must
    visit the same nodes in the same order.  With rows to drop, it is the
    drop search's (recursive_drop_search).
    """
    if droppable:
        return recursive_drop_search(g, active, state, target, witness, droppable, prove)
    lower, upper, best = _recursive_search(g, edges, active, state, target)
    for v in _active_vertices(g, active):
        witness[v] = best[v]
    return lower, upper


def _recursive_search(
    g: SimpleGraph,
    edges: Sequence[tuple[int, ...]],
    active: int,
    state: _SearchState,
    target: Optional[int],
) -> tuple[int, int, list[int]]:
    """(lower, upper, coloring achieving upper by vertex, 0 off active)."""
    vertices = _active_vertices(g, active)
    greedy = rebuilding_dsatur_greedy(g, active)
    best_count = max(greedy)
    best = list(greedy)
    clique = greedy_clique(g, active)
    lb = len(clique)
    if lb < best_count:
        lb = max(lb, counting_floor([edges[v] for v in vertices]))
    # No color above the ceiling is tried, and a best of at most stop
    # colors ends the search; a bracket that already settles the question
    # ends it before it starts.
    stop = lb if target is None else target
    if not lb <= stop < best_count:
        return lb, best_count, best
    ceiling = best_count - 1 if target is None else target

    colors = [0] * g.n
    for idx, v in enumerate(clique):
        colors[v] = idx + 1
    adj = g.adj
    uncolored = len(vertices) - len(clique)

    def descend(used: int) -> None:
        nonlocal best_count, best, uncolored, ceiling
        _tick(state)
        if uncolored == 0:
            if used < best_count:
                best_count = used
                best = colors.copy()
                if target is None:
                    ceiling = used - 1
            return
        pick, pick_key = -1, (-1, -1, 0)
        for v in vertices:
            if colors[v] == 0:
                sat = len({colors[w] for w in adj[v] if colors[w]})
                key = (sat, len(adj[v]), -v)
                if key > pick_key:
                    pick, pick_key = v, key
        v = pick
        forbidden = {colors[w] for w in adj[v]}
        for c in range(1, used + 2):
            if c > ceiling:
                break
            if c in forbidden:
                continue
            colors[v] = c
            uncolored -= 1
            descend(max(used, c))
            uncolored += 1
            colors[v] = 0
            if best_count <= stop:
                return

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, g.n + 1000))
    try:
        descend(len(clique))
    except _BudgetExhausted:
        return lb, best_count, best
    finally:
        sys.setrecursionlimit(old_limit)
    if best_count <= stop:
        return lb, best_count, best
    return ceiling + 1, best_count, best


class _Colorable(Exception):
    """A coloring that drops nothing, with its number of colors."""


def recursive_drop_search(
    g: SimpleGraph,
    active: int,
    state: _SearchState,
    ceiling: int,
    witness: list[int],
    droppable: int,
    prove: Callable[[int, dict[int, int]], int],
) -> tuple[int, int]:
    """The criticality table's drop search as a recursion over set
    rebuilds.

    Same contract as hypercolor.oracle._component_chromatic given rows to
    drop, and it must visit the same nodes in the same order and pass
    prove the same colorings: each node picks the uncolored, undropped
    vertex of the largest saturation, then degree in g, then the lowest
    number, and tries its colors up to one above those used, then the
    drop.  A coloring that drops a vertex is passed to prove by rank, and
    the recursion returns through every frame below the drop's, which then
    returns too.  A coloring that drops nothing is written into witness.
    """
    vertices = _active_vertices(g, active)
    rank, adj = g.rank, g.adj
    colors = [0] * g.n
    dropped: Optional[int] = None
    left = len(vertices)

    def descend(used: int) -> bool:
        """True while returning from a coloring that drops a vertex."""
        nonlocal droppable, dropped, left
        _tick(state)
        if left == 0:
            if dropped is None:
                raise _Colorable(used)
            classes: dict[int, int] = {}
            for v in vertices:
                if colors[v]:
                    classes[colors[v]] = classes.get(colors[v], 0) | 1 << rank[v]
            droppable &= ~prove(rank[dropped], classes)
            return True
        pick, pick_key = -1, (-1, -1, 0)
        for v in vertices:
            if colors[v] == 0 and v != dropped:
                sat = len({colors[w] for w in adj[v] if colors[w]})
                key = (sat, len(adj[v]), -v)
                if key > pick_key:
                    pick, pick_key = v, key
        v = pick
        forbidden = {colors[w] for w in adj[v]}
        for c in range(1, min(used + 1, ceiling) + 1):
            if c in forbidden:
                continue
            colors[v] = c
            left -= 1
            jumping = descend(max(used, c))
            left += 1
            colors[v] = 0
            if jumping:
                return True
        if dropped is None and droppable >> rank[v] & 1:
            dropped = v
            left -= 1
            descend(used)
            left += 1
            dropped = None
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, g.n + 1000))
    try:
        descend(0)
    except _Colorable as done:
        for v in vertices:
            witness[v] = colors[v]
        return 0, done.args[0]
    except _BudgetExhausted:
        return 0, ceiling + 1
    finally:
        sys.setrecursionlimit(old_limit)
    return ceiling + 1, ceiling + 1


def rejection_random_linear(n: int, m: int, k: int, seed: int) -> Hypergraph:
    """The pairwise-set form of ``random_linear``: every draw is checked
    against every chosen edge, and each edge gets the full retry cap.  A
    failure names its reason by trying every k-set once the cap is spent.
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
            cand = below_sample_sorted(rng, k, n)
            cset = set(cand)
            if all(len(cset & other) <= 1 for other in chosen_sets):
                chosen.append(cand)
                chosen_sets.append(cset)
                break
        else:
            free_left = any(
                all(len(set(cset) & other) <= 1 for other in chosen_sets)
                for cset in combinations(range(n), k)
            )
            reason = (
                "retry cap hit" if free_left else "no k-set avoids the used vertex pairs"
            )
            raise GenerationError(
                f"could not place edge {len(chosen) + 1} of {m} (n={n}, k={k}): {reason}"
            )
    return Hypergraph(n, chosen)


def restarting_survey_instance(
    master_seed: int,
    index: int,
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    k_choices: tuple[int, ...],
) -> tuple[FamilySpec, Hypergraph]:
    """The earlier form of ``survey_instance``: when random_linear cannot
    place an edge, the instance is drawn again from scratch with a fresh
    seed and one edge fewer, down to one edge, which always fits."""
    _check_survey_input(n_range, m_range, k_choices)
    rng = Rng(derive_seed(master_seed, index))
    n = rng.randint(*n_range)
    k = k_choices[rng.below(len(k_choices))]
    if k > n:
        k = 2
    m = rng.randint(*m_range)
    budget = (n * (n - 1) // 2) // (k * (k - 1) // 2)
    m = min(m, budget)
    while True:
        seed = rng.next_u64()
        try:
            h = random_linear(n, m, k, seed)
        except GenerationError:
            m = max(1, m - 1)
            continue
        spec = FamilySpec("random-linear", n=n, m=m, k=k, seed=seed)
        return spec, h


def per_token_parse_hgr(text: str) -> Hypergraph:
    """The earlier form of ``parse_hgr``: every vertex id is read on its own
    through ``integer`` and checked against 1..n, and the edges are
    validated again by ``Hypergraph``."""
    n: Optional[int] = None
    m: Optional[int] = None
    edges: list[tuple[int, ...]] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line:
            continue
        if line[0] == "c":
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise HgrParseError("second problem line", line_no)
            if len(tokens) != 4 or tokens[1] != "hgr":
                raise HgrParseError(
                    "problem line must be 'p hgr <n> <m>'", line_no
                )
            try:
                n, m = integer(tokens[2]), integer(tokens[3])
            except ValueError:
                raise HgrParseError("n and m must be integers", line_no)
            if n < 0 or m < 0:
                raise HgrParseError("n and m must be non-negative", line_no)
        elif tokens[0] == "e":
            if n is None:
                raise HgrParseError("edge before problem line", line_no)
            if len(tokens) == 1:
                raise HgrParseError("empty hyperedge", line_no)
            vs = []
            for tok in tokens[1:]:
                try:
                    v = integer(tok)
                except ValueError:
                    raise HgrParseError(f"bad vertex id {tok!r}", line_no)
                if not 1 <= v <= n:
                    raise HgrParseError(
                        f"vertex id {v} outside 1..{n}", line_no
                    )
                vs.append(v - 1)
            if len(set(vs)) != len(vs):
                raise HgrParseError("repeated vertex in hyperedge", line_no)
            edges.append(tuple(vs))
            if len(edges) > m:
                raise HgrParseError(
                    f"more than the declared {m} hyperedges", line_no
                )
        else:
            raise HgrParseError(f"unknown line type {tokens[0]!r}", line_no)
    if n is None:
        raise HgrParseError("missing problem line", None)
    if len(edges) != m:
        raise HgrParseError(
            f"declared {m} hyperedges but found {len(edges)}",
            last_line if last_line else None,
        )
    return Hypergraph(n, edges)


def per_token_parse_hgr_bytes(data: bytes) -> Hypergraph:
    """``parse_hgr_bytes`` through ``per_token_parse_hgr``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HgrParseError(f"input is not UTF-8 text (byte {exc.start})") from None
    return per_token_parse_hgr(text)


def counting_searches(monkeypatch) -> list[tuple[int, int]]:
    """Patch oracle.chromatic_index to record each call's searched edge
    count (h's m less the positions in without) and its nodes.  The list
    fills while the patch lasts."""
    calls: list[tuple[int, int]] = []
    search = oracle.chromatic_index

    def counted(h, budget=Budget(), **options):
        result = search(h, budget, **options)
        calls.append((h.m - len(set(options.get("without", ()))), result.nodes))
        return result

    monkeypatch.setattr(oracle, "chromatic_index", counted)
    return calls


def counting_builds(monkeypatch, cls: type, name: str) -> list[int]:
    """Patch the cached property cls.name to record each computation: a
    Hypergraph's m, or a SimpleGraph's n.  The list fills while the patch
    lasts."""
    built: list[int] = []
    build = getattr(cls, name).func

    def counted(obj):
        built.append(obj.m if cls is Hypergraph else obj.n)
        return build(obj)

    fact = cached_property(counted)
    fact.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, fact)
    return built
