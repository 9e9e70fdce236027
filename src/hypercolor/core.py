"""Hypergraphs with multiset hyperedge lists on vertices 0..n-1."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence


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
    0..n-1.  Loops (size-one hyperedges) are allowed; empty hyperedges are
    rejected.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = []
        for pos, edge in enumerate(edges):
            vs = tuple(sorted(edge))
            if not vs:
                raise ValueError(f"hyperedge {pos} is empty")
            for i, v in enumerate(vs):
                if not 0 <= v < n:
                    raise ValueError(
                        f"hyperedge {pos} contains vertex {v}, not in 0..{n - 1}"
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
    def _line_rows(self) -> tuple[tuple[int, ...], ...]:
        """For each position, the other positions whose hyperedge meets it,
        ascending: the line graph's rows, the one record of which hyperedges
        meet.  Each position walks its vertices' incidence lists and marks
        what it meets, so a position met twice is listed once.  Hypergraphs
        made by without() inherit the rows.
        """
        inc = self._incidence
        mark = [-1] * self.m
        rows = []
        for pos, edge in enumerate(self.edges):
            mark[pos] = pos
            row = []
            for v in edge:
                for other in inc[v]:
                    if mark[other] != pos:
                        mark[other] = pos
                        row.append(other)
            row.sort()
            rows.append(tuple(row))
        return tuple(rows)

    def incident(self, x: int) -> tuple[int, ...]:
        """Positions of the hyperedges containing vertex x, ascending."""
        if not 0 <= x < self.n:
            raise IndexError(f"vertex {x} not in 0..{self.n - 1}")
        return self._incidence[x]

    def hyperedge_degree(self, i: int) -> int:
        """Number of other positions whose hyperedge meets hyperedge i.

        Duplicate hyperedges count once per position, so a pair of equal
        edges contributes 1 to each other's degree.  It is the length of
        row i of the line graph.
        """
        self._check_position(i)
        return len(self._line_rows[i])

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

    def _component_count(self) -> int:
        """The number of components, each isolated vertex counting as one."""
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
        return sum(parent[v] == v for v in range(self.n))

    def remove_hyperedge(self, i: int) -> "Hypergraph":
        """The hypergraph on the same vertices with position i deleted."""
        return self.without({i})

    def without(self, positions: Iterable[int]) -> "Hypergraph":
        """The hypergraph on the same vertices without the given positions.

        The other hyperedges keep their order and are not validated again.
        When this hypergraph's line-graph rows are built, the result
        inherits them, cut down by _restricted_rows, instead of building
        its own.
        """
        gone = set(positions)
        for i in gone:
            self._check_position(i)
        keep = [p for p in range(self.m) if p not in gone]
        sub = object.__new__(Hypergraph)
        object.__setattr__(sub, "n", self.n)
        object.__setattr__(sub, "edges", tuple(self.edges[p] for p in keep))
        rows = self.__dict__.get("_line_rows")
        if rows is not None:
            sub.__dict__["_line_rows"] = _restricted_rows(rows, keep)
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
            connected=self._component_count() <= 1,
            two_section_max_degree=max(two_section_degs, default=0),
        )

    def _check_position(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise IndexError(f"hyperedge position {i} not in 0..{self.m - 1}")


def _restricted_rows(
    rows: tuple[tuple[int, ...], ...], keep: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Ascending adjacency rows cut down to the vertices in keep, where new
    vertex i stands for keep[i]: the rows of the induced subgraph.  Both
    Hypergraph.without and SimpleGraph.induced restrict rows through it.
    """
    index = [-1] * len(rows)
    for new, p in enumerate(keep):
        index[p] = new
    cut = [[k for other in rows[p] if (k := index[other]) >= 0] for p in keep]
    # index is increasing on an ascending keep, so its rows stay sorted.
    if any(a > b for a, b in zip(keep, keep[1:])):
        for row in cut:
            row.sort()
    return tuple(map(tuple, cut))
