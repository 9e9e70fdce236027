"""Constructive colorers of hyperedges: greedy first fit, Brooks-style
coloring of the line graph, and Vizing-style edge coloring of simple
graphs.

Every colorer takes a Hypergraph and returns a Coloring: a tuple of
colors indexed by hyperedge position.  First fit reads the line graph's
ranked masks; Brooks' colorer reads one line graph per component, its
masks for the degrees and first fit, its rows for the traversals.  All
colorers are deterministic for a fixed input (and order strategy / seed
where one applies), and all emit palettes that are exactly 1..q_used
with every color in between used at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import Hypergraph, UnsupportedInputError
from .instances import Rng
from .transforms import SimpleGraph, line_graph


def _check_palette(colors: tuple[int, ...]) -> None:
    used = set(colors)
    q_used = max(colors, default=0)
    if used != set(range(1, q_used + 1)):
        raise ValueError(
            f"colors must be exactly 1..{q_used}, got {sorted(used)}"
        )


@dataclass(frozen=True)
class Coloring:
    """colors[i] is the color of position i; palette 1..q_used."""

    colors: tuple[int, ...]

    def __post_init__(self):
        _check_palette(self.colors)

    @property
    def q_used(self) -> int:
        return max(self.colors, default=0)


def _renumbered(colors: list[int]) -> list[int]:
    """The same color classes, numbered 1..k in increasing order of color."""
    rank = {c: i + 1 for i, c in enumerate(sorted(set(colors)))}
    return [rank[c] for c in colors]


def is_proper(h: Hypergraph, coloring: Coloring) -> bool:
    """True iff intersecting hyperedge positions always differ in color,
    that is, every color class is a matching: no vertex lies in two of its
    hyperedges.

    The coloring must assign every position of h; a partial coloring
    raises ValueError.  Only the hyperedges are read, so the check builds
    neither incidence lists nor the line graph.
    """
    if len(coloring.colors) != h.m:
        raise ValueError("coloring must assign exactly the positions 0..m-1")
    classes: dict[int, list[int]] = {}
    for edge, c in zip(h.edges, coloring.colors):
        classes.setdefault(c, []).extend(edge)
    return all(len(vertices) == len(set(vertices)) for vertices in classes.values())


def greedy_color(
    h: Hypergraph, order: str = "desc-degree", seed: Optional[int] = None
) -> Coloring:
    """First-fit coloring of the line graph, hyperedges in a chosen order.

    Orders: "index" (positions as given), "desc-degree" (by decreasing
    hyperedge degree, ties by position: the line graph's own ranking),
    "random" (a seeded shuffle; seed defaults to 0).  A position takes the
    least color whose class misses its line-graph neighbourhood.  Uses at
    most max hyperedge degree + 1 colors.
    """
    g = line_graph(h)
    if order == "index":
        positions: Sequence[int] = range(h.m)
    elif order == "desc-degree":
        positions = g.order
    elif order == "random":
        positions = list(range(h.m))
        Rng(seed if seed is not None else 0).shuffle(positions)
    else:
        raise ValueError(f"unknown order {order!r}")
    return Coloring(tuple(_first_fit(g, positions)))


def _first_fit(g: SimpleGraph, positions: Iterable[int]) -> list[int]:
    """Give each position, in turn, the least color whose class (a mask
    over ranks) misses its neighbourhood mask; positions not given keep
    color 0."""
    rank, nb = g.rank, g.nb
    colors = [0] * g.n
    classes: list[int] = []
    for p in positions:
        i = rank[p]
        mask = nb[i]
        for c, members in enumerate(classes):
            if not members & mask:
                classes[c] = members | 1 << i
                break
        else:
            c = len(classes)
            classes.append(1 << i)
        colors[p] = c + 1
    return colors


# ---------------------------------------------------------------------------
# Brooks-style coloring of the line graph.
#
# Per connected component C of the line graph the colorer uses at most
# max_degree(C) colors unless C is a complete graph or an odd cycle, which
# need one more.  The strategy follows the constructive proof of Brooks'
# theorem on the line graph's vertices: color non-regular components
# greedily in reverse breadth-first order from a vertex of non-maximum
# degree; for regular two-connected components find two non-adjacent
# vertices u, w with a common neighbor v whose removal keeps the graph
# connected, give u and w the same color, and finish greedily in reverse
# breadth-first order from v.  A regular component with a cut vertex x is
# split there: each component of g - x is colored together with x, greedily
# in reverse breadth-first order from x.  x has neighbors in at least two
# parts, so fewer than the maximum degree in each, and every other vertex
# keeps its search parent uncolored; first fit leaves no gaps, and swapping
# two colors inside a part gives x color 1 in all of them.
# ---------------------------------------------------------------------------


def brooks_color(h: Hypergraph) -> Coloring:
    """Hyperedge coloring meeting Brooks' bound on each line-graph component:
    at most its maximum degree, one more for a complete graph or odd cycle."""
    colors = [0] * h.m
    for comp in h._components():
        local = _brooks_component(line_graph(h._keeping(comp)))
        for i, v in enumerate(comp):
            colors[v] = local[i]
    return Coloring(tuple(colors))


def _brooks_component(g: SimpleGraph) -> list[int]:
    """Color a connected graph with colors 1..k, k within the degree bound.
    Rank 0 has the largest degree and the last rank the smallest."""
    n = g.n
    delta, least = g.nb[0].bit_count(), g.nb[-1].bit_count()
    if least == n - 1:
        return list(range(1, n + 1))
    adj = g.adj
    if delta <= 2:
        return _color_path_or_cycle(adj)
    if least < delta:
        below = next(i for i, mask in enumerate(g.nb) if mask.bit_count() < delta)
        return _first_fit(g, reversed(_bfs(adj, min(g.order[below:]))))
    x = _cut_vertex(adj)
    if x is not None:
        return _split_at(g, x)
    u, v, w = _connected_split_pair(adj)
    # u and w are not adjacent, so both take color 1.
    return _first_fit(g, [u, w, *reversed(_bfs(adj, v, (u, w)))])


def _color_path_or_cycle(adj: Sequence[Sequence[int]]) -> list[int]:
    n = len(adj)
    ends = [v for v in range(n) if len(adj[v]) == 1]
    start = ends[0] if ends else 0
    walk = [start]
    prev = -1
    cur = start
    while len(walk) < n:
        nxt = next(w for w in adj[cur] if w != prev)
        walk.append(nxt)
        prev, cur = cur, nxt
    colors = [0] * n
    for i, v in enumerate(walk):
        colors[v] = 1 + (i % 2)
    if not ends and n % 2 == 1:
        colors[walk[-1]] = 3
    return colors


def _bfs(
    adj: Sequence[Sequence[int]], root: int, skip: Iterable[int] = ()
) -> list[int]:
    """The vertices reached from root without entering skip, in
    breadth-first order, each row's neighbors taken ascending.  First fit
    in the reverse of this order leaves every vertex but the root an
    uncolored neighbor (its search parent) when it is colored."""
    order = [root]
    seen = set(skip)
    seen.add(root)
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _connected_split_pair(adj: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Non-adjacent u, w with common neighbor v in the graph with rows adj,
    which stays connected without u and w.

    Exists in every two-connected regular non-complete graph of degree at
    least 3, which is the only shape this is called on.
    """
    n = len(adj)
    for v, row in enumerate(adj):
        for u, w in combinations(row, 2):
            if w not in adj[u] and len(_bfs(adj, v, (u, w))) == n - 2:
                return u, v, w
    raise RuntimeError("no split pair found; input was not as assumed")


def _cut_vertex(adj: Sequence[Sequence[int]]) -> Optional[int]:
    """A cut vertex of the connected graph with rows adj, or None if it
    has none.

    Depth-first search from vertex 0 with low points: a non-root u is a
    cut vertex once a finished child's subtree reaches nothing above u;
    the root is one when its first child's subtree misses a vertex.
    """
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


def _split_at(g: SimpleGraph, x: int) -> list[int]:
    """Color each component of g without x, found from its lowest
    position, together with x by first fit in reverse breadth-first order
    from x, skipping the rest; x takes color 1 in all of them."""
    adj = g.adj
    colors = [0] * g.n
    for s in range(g.n):
        if s == x or colors[s]:
            continue
        part = set(_bfs(adj, s, (x,)))
        order = _bfs(adj, x, set(range(g.n)) - part)
        local = _first_fit(g, reversed(order))
        have = local[x]
        for v in order:
            c = local[v]
            colors[v] = 1 if c == have else have if c == 1 else c
    return colors


# ---------------------------------------------------------------------------
# Vizing-style edge coloring of simple graphs via fan rotation.
#
# Each uncolored edge (u, v) is handled by building a maximal fan at u
# starting with v: a sequence of distinct neighbors where the color of
# each later spoke is missing at the spoke before it.  With c missing at
# u and d missing at the fan's last spoke, the maximal alternating path
# of colors d, c, d, ... out of u is reversed, which makes d missing at
# u as well; some prefix of the fan is then still a fan whose end also
# misses d, so shifting each spoke's color one step down the prefix and
# painting the last prefix edge with d extends the coloring.  The palette
# never exceeds max degree + 1.
# ---------------------------------------------------------------------------


def vizing_edge_color(h: Hypergraph) -> Coloring:
    """Proper edge coloring of a simple graph with at most Delta+1 colors.

    The graph is a hypergraph whose hyperedges all have exactly two
    vertices and are pairwise distinct; anything else raises
    UnsupportedInputError.  Edges are colored in sorted order.
    """
    if any(len(e) != 2 for e in h.edges):
        raise UnsupportedInputError(
            "this colorer needs every hyperedge to have exactly 2 vertices"
        )
    if len(set(h.edges)) != h.m:
        raise UnsupportedInputError(
            "this colorer needs all hyperedges distinct (no multi-edges)"
        )
    edges = sorted(h.edges)
    # Neighbour lists come out ascending: (u, x) with u < x sorts before (x, w).
    adj: list[list[int]] = [[] for _ in range(h.n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    palette = max(map(len, adj), default=0) + 1
    at: list[dict[int, int]] = [dict() for _ in range(h.n)]
    col: dict[tuple[int, int], int] = {}

    def assign(a: int, b: int, c: int) -> None:
        if c in at[a] or c in at[b]:
            raise RuntimeError("color collision during fan rotation")
        col[(min(a, b), max(a, b))] = c
        at[a][c] = b
        at[b][c] = a

    def unassign(a: int, b: int) -> int:
        c = col.pop((min(a, b), max(a, b)))
        del at[a][c]
        del at[b][c]
        return c

    def free_color(v: int) -> int:
        for c in range(1, palette + 1):
            if c not in at[v]:
                return c
        raise RuntimeError("no free color; palette invariant broken")

    def invert_path(u: int, c: int, d: int) -> None:
        # Walk the unique maximal path from u alternating d, c, d, ...
        # and swap the two colors along it.  u has no c-edge, so the
        # component of u in the cd-subgraph is a path starting with d.
        path: list[tuple[int, int, int]] = []
        x, want = u, d
        while want in at[x]:
            y = at[x][want]
            path.append((x, y, want))
            x, want = y, (c if want == d else d)
        for a, b, _ in path:
            unassign(a, b)
        for a, b, old in path:
            assign(a, b, c if old == d else d)

    for u, v in edges:
        fan = [v]
        fanset = {v}
        while True:
            last = fan[-1]
            ext = None
            for x in adj[u]:
                if x in fanset:
                    continue
                cx = col.get((min(u, x), max(u, x)))
                if cx is not None and cx not in at[last]:
                    ext = x
                    break
            if ext is None:
                break
            fan.append(ext)
            fanset.add(ext)
        c = free_color(u)
        d = free_color(fan[-1])
        if d in at[u]:
            invert_path(u, c, d)
        w = None
        for i, x in enumerate(fan):
            if d in at[x]:
                continue
            prefix_ok = True
            for j in range(1, i + 1):
                cj = col.get((min(u, fan[j]), max(u, fan[j])))
                if cj is None or cj in at[fan[j - 1]]:
                    prefix_ok = False
                    break
            if prefix_ok:
                w = i
                break
        if w is None:
            raise RuntimeError("no rotatable fan prefix; invariant broken")
        for j in range(w):
            shifted = unassign(u, fan[j + 1])
            assign(u, fan[j], shifted)
        assign(u, fan[w], d)

    return Coloring(tuple(_renumbered([col[e] for e in h.edges])))

