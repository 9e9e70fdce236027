"""Constructive colorers of hyperedges: greedy first fit, Brooks-style
coloring of the line graph, and Vizing-style edge coloring of simple
graphs.

Every colorer takes a Hypergraph and returns a Coloring: a tuple of
colors indexed by hyperedge position.  First fit and Brooks' colorer
walk the line graph's ranked masks, Brooks' one component's at a time,
and read no rows.  All colorers are deterministic for a fixed input (and
order strategy / seed where one applies), and all emit palettes that are
exactly 1..q_used with every color in between used at least once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import Hypergraph, UnsupportedInputError
from .instances import Rng
from .transforms import SimpleGraph, _ranks, line_graph


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
# two colors inside a part gives x color 1 in all of them.  Every traversal
# walks the component's masks; ties rank by position, so in a regular
# component, where the cut-vertex, split-pair and split-at helpers run, a
# bit is a position.
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
    if delta <= 2:
        return _color_path_or_cycle(g)
    if least < delta:
        below = next(i for i, mask in enumerate(g.nb) if mask.bit_count() < delta)
        return _first_fit(g, reversed(_bfs(g, min(g.order[below:]))))
    x = _cut_vertex(g)
    if x is not None:
        return _split_at(g, x)
    u, v, w = _connected_split_pair(g)
    # u and w are not adjacent, so both take color 1.
    return _first_fit(g, [u, w, *reversed(_bfs(g, v, 1 << u | 1 << w))])


def _color_path_or_cycle(g: SimpleGraph) -> list[int]:
    """Colors 1, 2, 1, ... along a path from its lower-numbered end (the
    ends rank last), or a cycle from position 0 (rank 0, as a cycle is
    regular) to its lower neighbor first; an odd cycle ends in color 3."""
    n, order, nb = g.n, g.order, g.nb
    cycle = nb[-1].bit_count() == 2
    i = 0 if cycle else n - 2
    seen = 1 << i
    colors = [0] * n
    for step in range(n):
        colors[order[i]] = 3 if cycle and n % 2 and step == n - 1 else 1 + step % 2
        low = nb[i] & ~seen
        low &= -low
        seen |= low
        i = low.bit_length() - 1
    return colors


def _bfs(g: SimpleGraph, root: int, skip: int = 0) -> list[int]:
    """The positions reached from root without entering skip (a mask over
    ranks), breadth first, each vertex's new neighbors in ascending
    position.  First fit in the reverse of this order leaves every vertex
    but the root an uncolored neighbor (its search parent) when colored."""
    order, rank, nb = g.order, g.rank, g.nb
    found = [root]
    seen = skip | 1 << rank[root]
    for v in found:
        new = nb[rank[v]] & ~seen
        seen |= new
        found += sorted(order[i] for i in _ranks(new))
    return found


def _connected_split_pair(g: SimpleGraph) -> tuple[int, int, int]:
    """Non-adjacent u, w with common neighbor v in the regular graph g,
    which stays connected without u and w.

    Exists in every two-connected regular non-complete graph of degree at
    least 3, which is the only shape this is called on.
    """
    nb = g.nb
    for v in range(g.n):
        for u, w in combinations(_ranks(nb[v]), 2):
            if not nb[u] >> w & 1 and len(_bfs(g, v, 1 << u | 1 << w)) == g.n - 2:
                return u, v, w
    raise RuntimeError("no split pair found; input was not as assumed")


def _cut_vertex(g: SimpleGraph) -> Optional[int]:
    """A cut vertex of the connected graph g, or None if it has none.

    Depth-first search from rank 0, lowest unvisited rank first; a frame
    holds a rank, the OR of its finished subtree's neighborhoods and its
    ancestors' mask.  Edges off the search tree join a vertex to an
    ancestor, so a non-root u is a cut vertex once a finished child's
    subtree meets none of u's ancestors.  The root is one when its first
    child's subtree misses a vertex; it has no child only when alone.
    """
    nb = g.nb
    seen = 1
    stack = [[0, nb[0], 0]]
    while True:
        i, reach, above = stack[-1]
        low = nb[i] & ~seen
        if low:
            low &= -low
            seen |= low
            j = low.bit_length() - 1
            stack.append([j, nb[j], above | 1 << i])
            continue
        if not above:
            return None
        stack.pop()
        parent = stack[-1]
        if not parent[2]:
            return g.order[0] if seen.bit_count() < g.n else None
        if not reach & parent[2]:
            return g.order[parent[0]]
        parent[1] |= reach


def _split_at(g: SimpleGraph, x: int) -> list[int]:
    """Color each component of the regular graph g without x, found from
    its lowest position, together with x by first fit in reverse
    breadth-first order from x, skipping the rest; x takes color 1 in all
    of them."""
    colors = [0] * g.n
    for s in range(g.n):
        if s == x or colors[s]:
            continue
        part = sum(1 << v for v in _bfs(g, s, 1 << x))
        order = _bfs(g, x, ~part)
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

