"""Hypergraphs with multiset hyperedge lists on vertices 0..n-1, each
keeping its one line graph (Hypergraph._line_graph, a SimpleGraph of
neighbourhood masks built from the hyperedges), and their subhypergraphs:
without(positions) for the callers, _keeping(positions) for the
line-graph components (_components()) that the oracle and Brooks'
colorer search."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .transforms import SimpleGraph


class UnsupportedInputError(ValueError):
    """Raised when an operation does not apply to the given instance shape."""


@dataclass(frozen=True)
class HypergraphStats:
    """Scalar invariants of a hypergraph, as computed by Hypergraph.stats().

    rank/antirank are None when there are no hyperedges.  uniform_k is the
    common hyperedge size when all sizes agree (None otherwise), regular_d
    the common vertex degree when all degrees agree.  two_section_max_degree
    is the maximum degree of the two-section multigraph, i.e. the largest
    value of sum(len(e) - 1 for e containing x) over vertices x.  linear:
    no two positions share two vertices, so a duplicated hyperedge of size
    >= 2 breaks it and duplicated loops do not.  connected: at most one
    component, an isolated vertex being a component of its own.
    """

    n: int
    m: int
    rank: Optional[int]
    antirank: Optional[int]
    max_degree: int
    min_degree: int
    loopless: bool
    linear: bool
    uniform_k: Optional[int]
    regular_d: Optional[int]
    connected: bool
    two_section_max_degree: int


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph: n vertices and an ordered multiset of hyperedges.

    Hyperedges live at positions 0..m-1 of a sequence; two positions may
    hold equal vertex sets, and every position counts separately for
    degrees, the two-section and the line graph.  Vertices are the integers
    0..n-1, each an int (not a bool or a float).  Loops (size-one hyperedges)
    are allowed; empty hyperedges are rejected.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a non-negative int")
        normalized = []
        for pos, edge in enumerate(edges):
            try:
                vs = tuple(sorted(edge))
            except TypeError:
                raise ValueError(f"hyperedge {pos} is not a set of int vertices") from None
            if not vs:
                raise ValueError(f"hyperedge {pos} is empty")
            for i, v in enumerate(vs):
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(
                        f"hyperedge {pos} contains vertex {v!r}, not an int in 0..{n - 1}"
                    )
                if i and vs[i - 1] == v:
                    raise ValueError(f"hyperedge {pos} repeats vertex {v}")
            normalized.append(vs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for pos, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(pos)
        return tuple(tuple(positions) for positions in inc)

    @cached_property
    def _line_graph(self) -> SimpleGraph:
        """The line graph, the one record of which hyperedges meet.  The
        positions' meeting masks give the degrees (popcount less one),
        hence the ranks; the same masks over ranks, less each position's
        own bit, are the neighbourhoods.
        """
        met = _meeting_masks(self.n, self.edges)
        order = sorted(range(self.m), key=lambda p: (-met[p].bit_count(), p))
        rank = [0] * self.m
        for i, p in enumerate(order):
            rank[p] = i
        ranked = _meeting_masks(self.n, [self.edges[p] for p in order])
        nb = tuple(mask ^ (1 << i) for i, mask in enumerate(ranked))
        return SimpleGraph(tuple(order), tuple(rank), nb)

    def incident(self, x: int) -> tuple[int, ...]:
        """Positions of the hyperedges containing vertex x, ascending."""
        if not 0 <= x < self.n:
            raise IndexError(f"vertex {x} not in 0..{self.n - 1}")
        return self._incidence[x]

    def hyperedge_degree(self, i: int) -> int:
        """Number of other positions whose hyperedge meets hyperedge i.

        Duplicate hyperedges count once per position, so a pair of equal
        edges contributes 1 to each other's degree.  It is the popcount of
        position i's line-graph mask.
        """
        self._check_position(i)
        g = self._line_graph
        return g.nb[g.rank[i]].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees indexed by vertex."""
        return tuple(len(positions) for positions in self._incidence)

    def _is_linear(self) -> bool:
        """stats().linear.  Each position marks the earlier positions it
        meets through its vertices; meeting one twice means a second shared
        vertex.  The work is bounded by the line graph's edges and the
        memory by m, however large a hyperedge.
        """
        met_by = [-1] * self.m
        for pos, edge in enumerate(self.edges):
            for v in edge:
                for other in self._incidence[v]:
                    if other >= pos:
                        break
                    if met_by[other] == pos:
                        return False
                    met_by[other] = pos
        return True

    def _components(self) -> list[tuple[int, ...]]:
        """The positions of each line-graph component, ascending, the
        components by their smallest position: the hyperedges grouped by
        the union-find root of their first vertex.
        """
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for edge in self.edges:
            r = find(edge[0])
            for v in edge[1:]:
                parent[find(v)] = r
        groups: dict[int, list[int]] = {}
        for pos, edge in enumerate(self.edges):
            groups.setdefault(find(edge[0]), []).append(pos)
        return [tuple(group) for group in groups.values()]

    def remove_hyperedge(self, i: int) -> "Hypergraph":
        """The hypergraph on the same vertices with position i deleted."""
        return self.without({i})

    def without(self, positions: Iterable[int]) -> "Hypergraph":
        """The hypergraph on the same vertices without the given positions.

        The other hyperedges keep their order and are not validated again.
        """
        gone = set(positions)
        for i in gone:
            self._check_position(i)
        return self._keeping(tuple(p for p in range(self.m) if p not in gone))

    def _keeping(self, positions: tuple[int, ...]) -> "Hypergraph":
        """The hypergraph on the same vertices with only the hyperedges at
        the given ascending positions, position i of it standing for
        positions[i]; its line graph is the part of this one on them.
        Keeping every position gives this hypergraph itself.
        """
        if len(positions) == self.m:
            return self
        sub = object.__new__(Hypergraph)
        object.__setattr__(sub, "n", self.n)
        object.__setattr__(sub, "edges", tuple(self.edges[p] for p in positions))
        return sub

    def stats(self) -> HypergraphStats:
        """The scalar invariants, computed on the first call and then kept."""
        return self._stats

    @cached_property
    def _stats(self) -> HypergraphStats:
        degs = self.degrees()
        max_deg = max(degs, default=0)
        min_deg = min(degs, default=0)
        sizes = [len(e) for e in self.edges]
        # A hyperedge e through x gives x, in the two-section, a multi-edge
        # to each of its other len(e) - 1 vertices.
        two_section_degs = [
            sum(sizes[p] for p in positions) - len(positions)
            for positions in self._incidence
        ]
        return HypergraphStats(
            n=self.n,
            m=self.m,
            rank=max(sizes, default=None),
            antirank=min(sizes, default=None),
            max_degree=max_deg,
            min_degree=min_deg,
            loopless=all(size >= 2 for size in sizes),
            linear=self._is_linear(),
            uniform_k=sizes[0] if sizes and len(set(sizes)) == 1 else None,
            regular_d=max_deg if max_deg == min_deg else None,
            # An isolated vertex is a component without a hyperedge.
            connected=len(self._components()) + degs.count(0) <= 1,
            two_section_max_degree=max(two_section_degs, default=0),
        )

    def _check_position(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise IndexError(f"hyperedge position {i} not in 0..{self.m - 1}")


def _meeting_masks(n: int, edges: Sequence[tuple[int, ...]]) -> list[int]:
    """Mask i has bit j set iff hyperedges i and j share a vertex, bit i
    included: each vertex ORs in the bits of its hyperedges, and each
    hyperedge ORs its vertices' masks.  The vertex masks are a list, or a
    dict when the vertices outnumber the incidences (a small part of a
    large hypergraph), so the work is bounded by the edges, not by n."""
    at = [0] * n if n <= sum(map(len, edges)) else defaultdict(int)
    for i, edge in enumerate(edges):
        bit = 1 << i
        for v in edge:
            at[v] |= bit
    masks = []
    for edge in edges:
        mask = 0
        for v in edge:
            mask |= at[v]
        masks.append(mask)
    return masks
