"""Reference oracles and instance helpers the tests trust.

The colorability searches here are deliberately naive (iterative
deepening over the color count, index-order backtracking) and share no
code with the package's solvers, so agreement between the two is
meaningful evidence.  Inputs are raw (n, edge list) pairs rather than
package types wherever possible; the package colors hyperedges only, so
a simple graph reaches it as graph_hypergraph(n, edges), whose line
graph it is.  The reference versions of package
logic (condition tags, the criticality table, core extraction, the
first-fit hyperedge colorer, the oracle's greedy coloring, greedy clique
and branch and bound, the random linear sampler) are the earlier, more
literal forms of that logic, kept to check the current forms against.
counting_builds spies on the package's cached facts.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import combinations
from typing import Optional

from hypercolor import (
    Budget,
    Coloring,
    CriticalCore,
    CriticalityReport,
    EdgeCriticality,
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


def searching_criticality_report(h: Hypergraph, budget: Budget) -> CriticalityReport:
    """The criticality table that searches every row from scratch.

    One chromatic_index call for the base q and one per hyperedge, with no
    certificate and no starting coloring.  It extracts no core.
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
        sub = chromatic_index(h.remove_hyperedge(i), budget)
        if sub.exact is None:
            entries.append(EdgeCriticality(i, deg, None, None))
            complete = False
            continue
        crit = sub.exact == q - 1
        entries.append(EdgeCriticality(i, deg, sub.exact, crit))
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


def set_greedy_clique(g: SimpleGraph) -> list[int]:
    """The oracle's greedy clique in its set-based form: every vertex a
    candidate at the start, a neighbour set per vertex, and each pick the
    candidate with the most neighbours among the candidates, the lowest
    number on ties."""
    adj_sets = [set(nb) for nb in g.adj]
    cand = set(range(g.n))
    clique: list[int] = []
    while cand:
        pick = max(cand, key=lambda v: (len(adj_sets[v] & cand), -v))
        clique.append(pick)
        cand &= adj_sets[pick]
    return clique


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
    g: SimpleGraph, state: _SearchState, incumbent: list[int] | None = None
) -> tuple[int, int, list[int]]:
    """The oracle's branch and bound as a recursion over set rebuilds.

    Same contract as hypercolor.oracle._component_chromatic, and it must
    visit the same nodes in the same order.  It starts from the incumbent
    when that uses fewer colors than the greedy coloring.
    """
    n = g.n
    greedy = rebuilding_dsatur_greedy(g)
    if incumbent is not None and max(incumbent) < max(greedy):
        greedy = incumbent
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
            cand = rng.sample_sorted(k, n)
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
