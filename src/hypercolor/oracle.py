"""Exact chromatic indices under an explicit search budget.

The chromatic index of a hypergraph is the chromatic number of its line
graph, and the solver is a saturation-guided branch and bound on each
component of that graph.  A component is a mask of ranks on
line_graph(h), the hypergraph's one cached graph, so the search of h
less some positions (a row of a criticality table) reads h's graph with
those ranks cleared, and no graph is built per component or per call.
It either proves an exact value or, when the budget runs out, returns an
honest bracket [lower, upper] together with a proper coloring achieving
the upper end; it never reports a wrong exact value.  A target t asks
only whether q <= t, and the search stops once either side is settled.
The search is deterministic, so an exact answer never changes when the
budget is enlarged, and node counts are reproducible (wall-clock cutoffs
aside).

Each component's lower end starts at the larger of its greedy clique and
the counting floor ceil(|C| / floor(|W| / a)) (Chetwynd & Hilton's
overfull bound: a color class is a matching), and its upper end at
DSATUR's coloring.  When the budget cuts a component's search with its
bracket open (or, with a target, its question open), a seeded TabuCol
pass (Hertz & de Werra 1987) from DSATUR's coloring, on a fixed
allowance of moves, may close it from above.  The floor can only end a
search sooner, the pass runs after it, and the pass reads nothing of the
budget or of the search, so a larger budget still never widens a
bracket.  The pass never runs at max_nodes=0, after a clock cut, or in
the drop search below.

The search is iterative, on an explicit stack, so its depth is not tied
to the interpreter's recursion limit.  It runs on bitsets, in the manner
of San Segundo et al.'s bit-parallel colorings: a SimpleGraph is its
ranked neighbourhood masks, the vertices ranked by degree, then number,
and each neighbourhood an int mask over the ranks.  One loop (_search)
keeps a mask per color, a bit-sliced saturation counter, its stack and
its node count in locals, so coloring or uncoloring a vertex and picking
the next one (DSATUR's most saturated, then highest-degree, then
lowest-numbered vertex) cost a few big-integer operations each, and a
branch node makes no function call and costs one comparison against the
budget.  The degree that breaks ties is the degree in h, whichever ranks
are searched.  DSATUR's starting coloring is that loop's first descent,
so the plain, target and drop searches, the DSATUR start and TabuCol's
start share one pick and one color rule; the greedy clique reads the
same masks.  Without positions left out or a target, a component's
ranks keep the order they would have in its own line graph, so the
search visits the same nodes in the same order as the recursive,
set-rebuilding search on that graph (tests/brute.py keeps that one as
the reference), and node counts, brackets and witnesses are unchanged
from it.

The same loop, given rows it may drop, is the drop search of a
criticality table (_Rows); its nodes are not part of any OracleResult.
It starts from no coloring and no clique, behind the same gate.
"""

from __future__ import annotations

import time
from collections import ChainMap
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, MutableMapping, Optional, Sequence

from .coloring import Coloring
from .core import Hypergraph
from .instances import Rng
from .transforms import SimpleGraph, _component_masks, _ranks, line_graph


@dataclass(frozen=True)
class Budget:
    """Per-call search allowance: branch nodes and wall-clock seconds.

    A search visits at most max_nodes nodes; at max_nodes=0 it visits
    none and runs no local search either, and each component is bracketed
    by its greedy clique or counting floor and its starting (DSATUR)
    coloring.  time_limit=None or 0 disables the clock, which is then
    never read; node limits alone keep results machine-independent.
    max_nodes must be an int >= 0 and time_limit None or a number >= 0
    (bools and nan are refused), or ValueError is raised: the search could
    not honour anything else.
    """

    max_nodes: int = 10_000_000
    time_limit: Optional[float] = 30.0

    def __post_init__(self):
        if type(self.max_nodes) is not int or self.max_nodes < 0:
            raise ValueError(f"max_nodes {self.max_nodes!r} is not an int >= 0")
        limit = self.time_limit
        if limit is not None and (type(limit) not in (int, float) or not limit >= 0):
            raise ValueError(f"time_limit {limit!r} is not None or a number >= 0")


class _SearchState:
    """The node count and the limits that every component's search shares.

    The search reads all three on entry, keeps them in locals and writes
    nodes back on every exit.  A clock cut sets max_nodes to the count, so
    every later component refuses before it counts, as after a node cut,
    and sets timed_out, so that no later TabuCol pass runs.
    """

    def __init__(self, budget: Budget):
        self.nodes = 0
        self.timed_out = False
        self._max_nodes = budget.max_nodes
        self._deadline = time.monotonic() + budget.time_limit if budget.time_limit else None


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact-coloring search.

    lower <= q <= upper always holds; witness is a proper coloring of the
    hyperedges with exactly `upper` colors, indexed by position.  exact is
    the value when the bracket is tight, None when the budget ran out
    first.  nodes, the branch nodes visited, never exceeds the budget's
    max_nodes.
    """

    lower: int
    upper: int
    witness: Coloring
    nodes: int

    @property
    def exact(self) -> Optional[int]:
        return self.upper if self.lower == self.upper else None

    # The package reads exact; of the program only bench/tracing.py reads this.
    @property
    def complete(self) -> bool:
        return self.lower == self.upper


def _dsatur_greedy(g: SimpleGraph, active: int, colors: list[int]) -> int:
    """Greedy coloring of the ranks in active, the most saturated first,
    written into colors by vertex of g; returns the number of colors used.
    Entries off active are left as they are.

    It is the search loop's first descent (_search): no clique, lower end
    0, and the ceiling and stop both at the degree bound most, which no
    rank's color needs to pass.  So no pick is a dead end, and the first
    leaf ends the search before any backtracking.  Its nodes go to a state
    of its own, which no result reads.
    """
    # A vertex never needs a color above its degree in active plus 1, and
    # the lowest active rank has the largest degree in g among them; an
    # active component is never empty.
    most = g.nb[(active & -active).bit_length() - 1].bit_count() + 1
    # One node per rank and one for the leaf.
    state = _SearchState(Budget(active.bit_count() + 1, None))
    return _search(g, active, state, [], 0, most + 1, most, most, colors)[1]


def greedy_clique(g: SimpleGraph, active: Optional[int] = None) -> list[int]:
    """A maximal clique of the ranks in active (all of g by default),
    grown by most candidates left.

    Its size is a certified lower bound on the chromatic number; the
    search below starts from it, and a component the budget leaves
    unsearched takes it as its lower end or, when DSATUR uses more colors,
    the larger of it and the counting floor (_counting_floor).  The first
    pick is the lowest
    active rank, of the largest degree in g, then the lowest number; each
    later pick is the candidate with the most candidates in its
    neighbourhood, ties going to the lowest-numbered vertex.  The result
    is a list of vertices of g.
    """
    if active is None:
        active = (1 << g.n) - 1
    if not active:
        return []
    order, nb = g.order, g.nb
    pick = (active & -active).bit_length() - 1
    clique = [order[pick]]
    cand = nb[pick] & active
    while cand:
        most = -1
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            k = (cand & nb[i]).bit_count()
            if k > most or k == most and order[i] < order[pick]:
                pick, most = i, k
        clique.append(order[pick])
        cand &= nb[pick]
    return clique


def _counting_floor(
    g: SimpleGraph, edges: Sequence[tuple[int, ...]], active: int
) -> int:
    """ceil(|C| / floor(|W| / a)) for the hyperedges C at the ranks in
    active, W the vertices they cover and a their smallest size.

    Each color class is a matching, and a matching of hyperedges of size
    at least a inside W has at most floor(|W| / a) members: the overfull
    bound (Chetwynd & Hilton 1986).  It holds with loops and duplicate
    hyperedges.  For an odd complete graph K_n it is n.
    """
    members = [edges[g.order[i]] for i in _ranks(active)]
    per_class = len(set().union(*members)) // min(map(len, members))
    return -(-len(members) // per_class)


def _component_chromatic(
    g: SimpleGraph,
    edges: Sequence[tuple[int, ...]],
    active: int,
    state: _SearchState,
    target: Optional[int],
    colors: list[int],
    droppable: int = 0,
    prove: Optional[Callable[[int, dict[int, int]], int]] = None,
) -> tuple[int, int]:
    """(lower, upper) for the connected subgraph of g on the ranks in
    active, with a coloring achieving upper written into colors by vertex
    of g; entries off active are left as they are.  g is the line graph of
    edges, the hyperedges by position.

    Two starts and one gate come before the loop (_search).  With no rank
    to drop (droppable 0), the best coloring starts as DSATUR's and the
    clique as greedy_clique's; lb is the clique's size or, when DSATUR
    uses more colors, the larger of it and the counting floor
    (_counting_floor), so the floor can only end a search sooner.  With
    ranks to drop there is no coloring and no clique: lb is 0 and the best
    count t + 1, so a cut search returns (0, t + 1).  stop is lb, or t.
    The gate returns (lb, best count) at once unless lb <= stop < best
    count, so a closed bracket, a coloring of at most t colors (DSATUR's
    included) and a lower end above t each end a search before its first
    node; the ceiling is then the best count less 1, or t.
    """
    if droppable:
        clique, lb, best_count = [], 0, target + 1
    else:
        best_count = _dsatur_greedy(g, active, colors)
        clique = greedy_clique(g, active)
        lb = len(clique)
        if lb < best_count:
            lb = max(lb, _counting_floor(g, edges, active))
    stop = lb if target is None else target
    if not lb <= stop < best_count:
        return lb, best_count
    ceiling = best_count - 1 if target is None else target
    return _search(
        g, active, state, clique, lb, best_count, stop, ceiling, colors, droppable, prove
    )


def _search(
    g: SimpleGraph, active: int, state: _SearchState, clique: list[int],
    lb: int, best_count: int, stop: int, ceiling: int, colors: list[int],
    droppable: int = 0, prove: Optional[Callable[[int, dict[int, int]], int]] = None,
) -> tuple[int, int]:
    """(lower, upper) for the ranks in active of g from the clique (colors
    1..len(clique)), lb and the best count, where lb <= stop < best count
    and ceiling < best count; each new best goes into colors by vertex.

    Depth-first on an explicit stack, in one loop that keeps its state in
    locals and makes no call per node:
    - seen[c] marks the ranks with a neighbour colored c, and starts
      empty; uncolored marks the active ranks without a color.  Marks off
      active are harmless: those ranks are never picked, and a scan tests
      only the picked rank's bit;
    - the saturation of each rank (its number of distinct neighbour
      colors) is bit-sliced, high plane first: bit i of planes[ones - j]
      is bit j of the count of rank i.  Coloring rank i with c saturates
      x = nb[i] & ~seen[c], which joins seen[c] and is added to the counts
      as a carry; uncoloring subtracts the same x as a borrow, which
      restores both exactly, since colors are undone last in, first out;
    - the pick is the uncolored rank with the largest (saturation, degree
      in g, -vertex): narrowing the uncolored mask plane by plane from the
      top leaves the ties at the highest saturation, and their lowest rank
      has the highest degree, then the lowest number.  The narrowing reads
      that saturation sat as it goes, one doubling per plane;
    - the stack is five lists indexed by depth d: the rank, its color,
      the colors used on entry, its spare colors and the mask its color
      saturated;
    - a frame's candidates are its free colors up to entry, ascending,
      then entry + 1 (colors beyond it are interchangeable).  The colors
      of its neighbours stay the same while it is on the stack, and none
      is above entry, so entry - sat of them are free, and spare counts
      the ones not yet taken: a scan for the next runs only while spare
      is positive, and always stops at or below entry.  A rank that sees
      every color used takes entry + 1 at once;
    - no color above ceiling is tried: a candidate above it ends its
      frame, since every later one is larger;
    - a push colors its rank at once.  A pick with no candidate is a dead
      end: it is counted as a node but not pushed, so the stack holds
      only colored frames (and, for a table, one dropped rank);
    - one comparison per node guards the node count, which is read from
      state on entry and written back on every exit: bound is max_nodes
      or, with a clock, the count just before its next read at a multiple
      of 1024 nodes, if that comes first;
    - a new best of at most stop colors ends the search; any other lowers
      the ceiling to one less than its count.
    A cut returns (lb, best count), and a search out of colorings
    (ceiling + 1, best count).

    Given ranks it may drop, a frame with no color left under the ceiling
    drops its rank, if it is droppable and no rank is dropped yet, and the
    dropped rank holds ceiling + 1, which saturates nothing.  A complete
    coloring that drops a rank s goes to prove(s, classes), classes
    mapping each color to its mask of ranks; prove returns ranks, s among
    them, that no frame drops afterwards, and the dropping frame pops.
    """
    # Search colors stay at or below the ceiling, and so does every
    # saturation; a dropped rank holds ceiling + 1.
    rank, order, nb = g.rank, g.order, g.nb
    seen = [0] * (ceiling + 2)
    planes = [0] * ceiling.bit_length()
    ones = len(planes) - 1
    uncolored = active
    for c, v in enumerate(clique, 1):
        i = rank[v]
        # Each clique color is taken once, so it saturates i's whole
        # neighbourhood.
        x = seen[c] = nb[i]
        uncolored ^= 1 << i
        j = ones
        while x:
            plane = planes[j]
            planes[j] = plane ^ x
            x &= plane
            j -= 1
    used = len(clique)
    free = active.bit_count() - used
    at, held, entry, spare, saturated = ([0] * free for _ in range(5))
    last, d, drop = free - 1, -1, -1
    nodes, max_nodes, deadline = state.nodes, state._max_nodes, state._deadline
    bound = max_nodes
    if deadline is not None and nodes | 1023 < bound:
        bound = nodes | 1023
    while True:
        if nodes >= bound:
            if nodes >= max_nodes:
                state.nodes = nodes
                return lb, best_count
            # The count is about to reach a multiple of 1024: read the clock.
            if time.monotonic() > deadline:
                # Every later component refuses before it counts, as after a node cut.
                state.nodes = state._max_nodes = nodes + 1
                state.timed_out = True
                return lb, best_count
            bound = min(max_nodes, nodes + 1024)
        nodes += 1
        if d == last:
            if drop >= 0:
                classes: dict[int, int] = {}
                for i, c in zip(at, held):
                    if c <= ceiling:
                        classes[c] = classes.get(c, 0) | 1 << i
                droppable &= ~prove(at[drop], classes)
                # Every coloring below the drop drops the same rank: the
                # frames above it have nothing left, and then it pops.
                for k in range(drop + 1, free):
                    spare[k] = 0
                    entry[k] = ceiling
            elif used < best_count:
                best_count = used
                for i, c in zip(at, held):
                    colors[order[i]] = c
                for c, v in enumerate(clique, 1):
                    colors[v] = c
                if used <= stop:
                    state.nodes = nodes
                    return lb, used
                ceiling = used - 1
        else:
            ties = uncolored
            sat = 0
            for plane in planes:
                sat += sat
                top = ties & plane
                if top:
                    ties = top
                    sat += 1
            bit = ties & -ties
            i = bit.bit_length() - 1
            s = used - sat
            if s:
                s -= 1
                c = 1
                while seen[c] & bit:
                    c += 1
            else:
                c = used + 1
            if c <= ceiling:
                d += 1
                at[d] = i
                held[d] = c
                entry[d] = used
                spare[d] = s
                saturated[d] = x = nb[i] & ~seen[c]
                seen[c] |= x
                uncolored ^= bit
                j = ones
                while x:
                    plane = planes[j]
                    planes[j] = plane ^ x
                    x &= plane
                    j -= 1
                if c > used:
                    used = c
                continue
            if droppable & bit and drop < 0:
                d = drop = d + 1
                at[d] = i
                held[d] = ceiling + 1
                entry[d] = used
                spare[d] = saturated[d] = 0
                uncolored ^= bit
                continue
        # Back up to the deepest frame with a color or the drop left, and
        # take it.
        while d >= 0:
            i = at[d]
            bit = 1 << i
            c = held[d]
            x = saturated[d]
            seen[c] ^= x
            uncolored |= bit
            j = ones
            # The borrow out of a plane is x less the old plane: x and the
            # new one.
            while x:
                planes[j] = plane = planes[j] ^ x
                x &= plane
                j -= 1
            s = spare[d]
            if s:
                spare[d] = s - 1
                c += 1
                while seen[c] & bit:
                    c += 1
                used = entry[d]
            elif c > entry[d]:
                c = ceiling + 1
            else:
                used = c = entry[d] + 1
            if c > ceiling:
                if d == drop:
                    drop = -1
                elif droppable & bit and drop < 0:
                    # After its colors, the frame drops its rank.
                    held[d] = ceiling + 1
                    saturated[d] = 0
                    used = entry[d]
                    uncolored ^= bit
                    drop = d
                    break
                d -= 1
                continue
            held[d] = c
            saturated[d] = x = nb[i] & ~seen[c]
            seen[c] |= x
            uncolored ^= bit
            j = ones
            while x:
                plane = planes[j]
                planes[j] = plane ^ x
                x &= plane
                j -= 1
            break
        else:
            # No frame has a color left under the ceiling.
            state.nodes = nodes
            return ceiling + 1, best_count


# The TabuCol pass: moves per rank of a component, shared by all its
# attempts, and the seed of its draws.  Neither depends on the budget.
_TABU_MOVES_PER_RANK = 6
_TABU_SEED = 1


def _tabucol(
    g: SimpleGraph, active: int, goal: int, upper: int, colors: list[int],
    state: _SearchState,
) -> int:
    """The upper end for the component of g on the ranks in active after a
    seeded TabuCol pass (Hertz & de Werra 1987): upper, or the count of a
    coloring with fewer colors that the pass found, written into colors by
    vertex of g with the palette 1..count.

    The pass starts from DSATUR's coloring, with D colors, and asks for
    D - 1, D - 2, ... colors in turn, down to goal.  Each attempt gives the
    ranks of the top color, one by one, the color fewest of their
    neighbours hold, then makes moves until no two neighbours share a
    color.  A move recolors a conflicted rank (one with a neighbour of its
    color) to the color that lowers the count of conflicting pairs most,
    ties drawn at random; it never gives a rank back a color it left less
    than its tenure ago (0.6 times the conflicted ranks, plus a draw from
    0..9, in moves), unless the move reaches fewer conflicts than the
    attempt has seen.  All attempts share one allowance of
    _TABU_MOVES_PER_RANK moves per rank, and the pass ends at the first
    attempt that runs out of it.  Nothing in the pass reads the node
    budget or the search's coloring, so it ends at the same coloring
    whatever the budget.  With a clock it reads it every 1024 moves, and
    past the deadline it ends there and cuts every later component, as the
    search does.
    """
    order, nb = g.order, g.nb
    ranks = _ranks(active)
    n = len(ranks)
    local = {i: v for v, i in enumerate(ranks)}
    adj = [[local[j] for j in _ranks(nb[i] & active)] for i in ranks]
    start = [0] * g.n
    k = _dsatur_greedy(g, active, start)
    # Colors from 0 here, so that color c indexes gamma[v][c].
    col = [start[order[i]] - 1 for i in ranks]
    best: Optional[list[int]] = None
    count = k
    rng = Rng(_TABU_SEED)
    deadline = state._deadline
    moves, allowance = 0, _TABU_MOVES_PER_RANK * n
    # With a clock, the pass reads it at every 1024th move.
    read_at = 1024 if deadline is not None else -1
    hidden = 2 * n
    # gamma[v][c] counts v's neighbours of color c.
    gamma = [[0] * k for _ in range(n)]
    for v, c in enumerate(col):
        for u in adj[v]:
            gamma[u][c] += 1
    conflicts = 0
    while k > goal and not conflicts:
        # The top color goes, and its ranks take, one by one, the color
        # fewest of their neighbours hold.
        k -= 1
        for gv in gamma:
            del gv[k]
        for v in [v for v, c in enumerate(col) if c == k]:
            gv = gamma[v]
            c = col[v] = gv.index(min(gv))
            for u in adj[v]:
                gamma[u][c] += 1
        # The conflicted ranks, as a dict so that they keep a fixed order.
        conflicted = {v: None for v in range(n) if gamma[v][col[v]]}
        conflicts = fewest = sum(gamma[v][col[v]] for v in conflicted) // 2
        tabu = [[0] * k for _ in range(n)]
        while conflicts and moves < allowance:
            if moves == read_at:
                read_at += 1024
                if time.monotonic() > deadline:
                    state.timed_out = True
                    state._max_nodes = state.nodes
                    break
            moves += 1
            delta = n
            for v in conflicted:
                gv = gamma[v]
                cv = col[v]
                own = gv[cv]
                # A color worth a look has at most limit neighbours of it;
                # v's own color is hidden above every limit while its row
                # is scanned.
                limit = delta + own
                gv[cv] = hidden
                if min(gv) <= limit:
                    tv = tabu[v]
                    # A tabu color is taken only below aspire neighbours.
                    aspire = fewest - conflicts + own
                    for c, x in enumerate(gv):
                        if x > limit or tv[c] > moves and x >= aspire:
                            continue
                        if x < limit:
                            delta, limit = x - own, x
                            picks = [(v, c)]
                        else:
                            picks.append((v, c))
                gv[cv] = own
            if delta == n:
                # Every move is tabu: wait for a tenure to end.
                continue
            # One draw serves both the tie and the tenure; its bias is below
            # 2**-28.
            draw = rng.next_u64()
            v, c = picks[draw % len(picks)]
            old = col[v]
            col[v] = c
            for u in adj[v]:
                gu = gamma[u]
                gu[old] -= 1
                gu[c] += 1
                cu = col[u]
                if cu == old:
                    if not gu[old]:
                        del conflicted[u]
                elif cu == c and gu[c] == 1:
                    conflicted[u] = None
            if not gamma[v][c]:
                del conflicted[v]
            conflicts += delta
            if conflicts < fewest:
                fewest = conflicts
            tabu[v][old] = moves + 3 * len(conflicted) // 5 + (draw >> 32) % 10
        if not conflicts:
            best, count = col[:], k
    if best is None or count >= upper:
        return upper
    # A move takes a rank out of its color only while a neighbour holds
    # that color, so no color of an attempt goes unused, and the palette is
    # 1..count.
    for v, i in enumerate(ranks):
        colors[order[i]] = best[v] + 1
    return count


def chromatic_index(
    h: Hypergraph,
    budget: Budget = Budget(),
    *,
    without: Iterable[int] = (),
    target: Optional[int] = None,
) -> OracleResult:
    """Minimum colors for the hyperedges of h.without(without) so
    intersecting ones differ.

    Computed as the chromatic number of the line graph, component by
    component: each component is a rank mask on line_graph(h), h's one
    graph, less the ranks of the positions in without, so no graph is
    built per call.  The witness is indexed by position of
    h.without(without).  The components share one budget; once it runs
    out, each component left is bracketed by its greedy clique or counting
    floor and its starting coloring.  The hyperedges through any one vertex
    are pairwise intersecting, so an open bracket's lower end is raised to
    the maximum vertex degree; an exact value is already at least that.

    A target t asks only whether q <= t: each component's search stops at
    a coloring of at most t colors or at a proof that it needs more (see
    _component_chromatic), so upper <= t or lower > t settles it, and the
    bracket stays honest either way.  A target that is not an int, a bool
    included, raises ValueError before any search.

    A component whose search the budget cuts with its bracket open (with
    a target: with lower <= t < upper) gets a TabuCol pass (_tabucol)
    down to its lower end, or to t, when max_nodes is positive and no clock
    has cut the call; its coloring is kept only when it uses fewer colors.
    The pass is the same at every budget, so the upper end is the smaller
    of the search's and the pass's, and a larger budget never widens the
    bracket.
    """
    if target is not None and type(target) is not int:
        raise ValueError(f"target {target!r} is not an int")
    g = line_graph(h)
    gone = set(without)
    for p in gone:
        h._check_position(p)
    if gone:
        active = (1 << h.m) - 1
        for p in gone:
            active ^= 1 << g.rank[p]
        components = _component_masks(g, active)
    else:
        components = h._components
    state = _SearchState(budget)
    lower = upper = 0
    witness = [0] * h.m
    for comp in components:
        lo, hi = _component_chromatic(g, h.edges, comp, state, target, witness)
        # A search the budget cut leaves its question open: a coloring with
        # fewer colors may still close it from above.
        goal = lo if target is None else target
        if lo <= goal < hi and budget.max_nodes and not state.timed_out:
            hi = _tabucol(g, comp, goal, hi, witness, state)
        lower = max(lower, lo)
        upper = max(upper, hi)
    if lower < upper:
        degrees = list(h.degrees())
        for p in gone:
            for x in h.edges[p]:
                degrees[x] -= 1
        lower = max(lower, max(degrees))
    if gone:
        witness = [c for p, c in enumerate(witness) if p not in gone]
    return OracleResult(lower, upper, Coloring(tuple(witness)), state.nodes)


@dataclass(frozen=True)
class EdgeCriticality:
    """One row of a criticality table."""

    position: int
    degree: int
    q_without: Optional[int]
    critical: Optional[bool]


@dataclass(frozen=True)
class CriticalCore:
    """A subhypergraph with the same chromatic index, every edge critical.

    removed lists the original positions deleted, in deletion order.
    complete=False flags a budget interruption: the hypergraph returned is
    then merely an intermediate stage.
    """

    hypergraph: Hypergraph
    complete: bool
    removed: tuple[int, ...]


@dataclass(frozen=True)
class CriticalityReport:
    """Per-hyperedge criticality, plus the key inequality's verdict.

    lemma_ok reports whether q - 1 <= hyperedge degree held for every
    hyperedge whose criticality was decided positively.  The key lemma
    proves that inequality for every critical e of any hypergraph, loops
    and duplicate edges included (see _Rows), so a False here indicates
    an implementation bug, not a discovery.  complete is True when q and
    every row were decided within budget.  core is the critical core of h
    with the same q (see criticality_report), or None when it was not
    asked for.
    """

    q: Optional[int]
    entries: tuple[EdgeCriticality, ...]
    complete: bool
    lemma_ok: bool
    core: Optional[CriticalCore]


class _Rows:
    """q(h' - e) for the rows e of a table and its extraction, h' being h
    less some deleted positions, with the same chromatic index q as h.

    Built once from h, q and the base search's q-coloring of h.  The
    caller keeps a map of the rows decided in h', and each answer goes
    there: q (e is removable), q - 1 (e is critical) or None (undecided).
    A row is decided by the first of these that applies:
    - a proof of the base search (_proof).  A vertex of degree q in h, or
      a q-clique of h's line graph (greedy_clique), none of whose edges is
      deleted or e, leaves q pairwise intersecting edges in h' - e, and no
      deletion raises q, so e is removable.  When no other edge of h' has
      e's color in the base coloring, that coloring of h' - e uses q - 1
      colors, and one deletion lowers q by at most 1, so e is critical;
    - in h, the drop search (decide): one search of h's line graph for a
      (q-1)-coloring that leaves one undecided row uncolored
      (_component_chromatic with rows to drop).  A coloring that drops e
      proves e critical, and once the search is exhausted every row it
      did not prove is removable;
    - a search of h' - e (q_without): chromatic_index(h, budget,
      without=the deleted positions and e, target=q - 1), a mask on h's
      line graph.  e is critical when the upper end is at most q - 1,
      removable when the lower end is at least q.

    A row found critical comes with a (q-1)-coloring of h' - e: the
    search's, or the base coloring without e.  e's neighbours meet every
    color of it, or e could take the missing one and h' would need only
    q - 1: this is the key lemma, q - 1 <= d(e).  Its exchange argument
    (_exchange) reads more critical rows off the coloring: a neighbour f
    of e in h' that is e's only neighbour with its color c is critical in
    h', since dropping f and giving e color c colors h' - f with q - 1
    colors.  That coloring is read the same way in turn, until no new row
    is proved.
    """

    def __init__(self, h: Hypergraph, q: int, witness: Coloring):
        self.h = h
        self.q = q
        self.colors = witness.colors
        # line_graph(h) is the graph the base search, the drop search and
        # every row search run on; the exchange argument walks its masks.
        self.graph = line_graph(h)
        rank = self.graph.rank
        # The base coloring as a rank mask per color, in order of each
        # color's first position.
        self.classes: dict[int, int] = {}
        for p, c in enumerate(self.colors):
            self.classes[c] = self.classes.get(c, 0) | 1 << rank[p]
        # Rank masks of q pairwise intersecting positions: the edges through
        # a vertex of degree q, and the greedy clique when it has q members.
        sets = [h.incident(x) for x, d in enumerate(h.degrees()) if d == q]
        clique = greedy_clique(self.graph)
        if len(clique) == q:
            sets.append(clique)
        self.cliques = [sum(1 << rank[p] for p in s) for s in sets]

    def _proof(self, e: int, gone: int, decided: dict[int, Optional[int]]) -> Optional[int]:
        """q(h' - e) by a proof of the base search, recorded in decided, or
        None when none applies; gone is the rank mask of e and the deleted
        positions.  On q - 1, _exchange records the rows it derives too."""
        if any(not clique & gone for clique in self.cliques):
            decided[e] = self.q
            return self.q
        if self.classes[self.colors[e]] & ~gone:
            return None
        # The base coloring of h' - e, its classes in order of their first
        # position left: the exchange's result depends on that order.
        order = self.graph.order
        left = sorted(
            ((c, members & ~gone) for c, members in self.classes.items() if members & ~gone),
            key=lambda item: min(order[i] for i in _ranks(item[1])),
        )
        self._exchange(self.graph.rank[e], dict(left), decided)
        return self.q - 1

    def decide(self, budget: Budget, decided: dict[int, Optional[int]]) -> int:
        """Record in decided, an empty map, the rows of h that _proof
        settles, then drop-search the rest, component by component of h's
        line graph, on one budget of their own.  Returns the search's
        nodes.  A row the budget or the clock leaves open is not recorded.

        A coloring that drops e proves only that C - e takes q - 1 colors,
        C being e's component.  So the rows a component's search proves are
        kept apart, in proved (read through to decided), and recorded once
        every other component takes q - 1 colors: without a search when the
        base coloring uses fewer than q colors on it, and otherwise by a
        search for a (q-1)-coloring, which drops rows only when the
        component has some left.  Such a coloring makes each row of its
        component removable; two components that need q make every row
        removable; and so is each row of a component that needs q and that
        its search did not prove.
        """
        h, q, g = self.h, self.q, self.graph
        rank, order = g.rank, g.order
        for e in range(h.m):
            if e not in decided:
                self._proof(e, 1 << rank[e], decided)
        open_rows = sum(1 << rank[e] for e in range(h.m) if e not in decided)
        if not open_rows:
            return 0
        state = _SearchState(budget)
        scratch = [0] * h.m
        searched = []
        needing = 0
        for comp in h._components:
            proved: dict[int, Optional[int]] = {}
            if sum(1 for members in self.classes.values() if members & comp) < q:
                lo, hi = 0, q - 1
            else:
                prove = partial(self._exchange, decided=ChainMap(proved, decided))
                lo, hi = _component_chromatic(
                    g, h.edges, comp, state, q - 1, scratch, open_rows & comp, prove
                )
            # True: the component takes q - 1 colors; False: it needs q.
            found = True if hi < q else False if lo >= q else None
            searched.append((comp, found, proved))
            needing += found is False
            if needing == 2:
                for e in range(h.m):
                    decided[e] = q
                return state.nodes
        colorable = sum(found is True for _, found, _ in searched)
        for comp, found, proved in searched:
            if found is not True and colorable == len(searched) - 1:
                decided.update(proved)
            if found is not None:
                for i in _ranks(comp & open_rows):
                    if found or order[i] not in proved:
                        decided[order[i]] = q
        return state.nodes

    def q_without(
        self, deleted: list[int], e: int, budget: Budget,
        decided: dict[int, Optional[int]],
    ) -> Optional[int]:
        """q(h' - e), h' being h without the deleted positions, by _proof
        or else by a search; None if undecided.  Records it in decided, the
        rows of h' decided so far."""
        rank = self.graph.rank
        gone = sum(1 << rank[p] for p in (e, *deleted))
        found = self._proof(e, gone, decided)
        if found is not None:
            return found
        result = chromatic_index(self.h, budget, without=(e, *deleted), target=self.q - 1)
        if result.upper >= self.q:
            found = self.q if result.lower >= self.q else None
            decided[e] = found
            return found
        left = (p for p in range(self.h.m) if not gone >> rank[p] & 1)
        classes: dict[int, int] = {}
        for p, c in zip(left, result.witness.colors):
            classes[c] = classes.get(c, 0) | 1 << rank[p]
        self._exchange(rank[e], classes, decided)
        return self.q - 1

    def _exchange(
        self, i: int, classes: dict[int, int],
        decided: MutableMapping[int, Optional[int]],
    ) -> int:
        """Record q - 1 for the row of rank i, and for every row the
        exchange argument derives from classes, a (q-1)-coloring of h' less
        that row as a rank mask per color; returns the ranks recorded.  A
        row the map already holds at q - 1 is not followed again."""
        order, nb = self.graph.order, self.graph.nb
        below = self.q - 1
        decided[order[i]] = below
        recorded = 1 << i
        todo = [(i, classes)]
        while todo:
            i, classes = todo.pop()
            for c, members in classes.items():
                met = nb[i] & members
                # One rank met: the row's only neighbour colored c.
                if met and not met & (met - 1):
                    f = order[met.bit_length() - 1]
                    if decided.get(f) != below:
                        decided[f] = below
                        recorded |= met
                        swapped = dict(classes)
                        swapped[c] = members ^ met | 1 << i
                        todo.append((met.bit_length() - 1, swapped))
        return recorded


def criticality_report(
    h: Hypergraph, budget: Budget = Budget(), extract: bool = False
) -> CriticalityReport:
    """Tabulate criticality, check q - 1 <= d(e) for critical e, and with
    extract, reduce h to a critical core.

    Each row is q(h - e), decided as _Rows says, and the lemma check runs
    on every critical row however it was decided.  Two maps hold the rows
    decided so far: in_h maps a row e to q(h - e), and in_core to
    q(h' - e) for the scan's current h'.  The drop search fills in_h first;
    a row it leaves open is searched on its own when the core or the table
    reads it.

    The core comes next.  It scans positions once in ascending order and
    deletes each one whose removal keeps q, so it is deterministic; until
    its first deletion h' is h and its rows are read from in_h.  A row it
    deletes is removable in h too: q(h - e) >= q(h' - e) = q.  A row
    proved critical in either map is kept without a search: in every
    subhypergraph h' of h that holds e and has the same q,
    q(h' - e) <= q(h - e) = q - 1, and a row proved critical in h' stays
    so in every later h''.  A row left undecided in h' is decided in h: it
    is kept if critical there, and otherwise the extraction ends,
    incomplete.  Every hyperedge of a complete core is critical.  The
    table then reads every row from in_h, so a row has the same value
    with or without extract.
    """
    base = chromatic_index(h, budget)
    if base.exact is None:
        core = CriticalCore(h, False, ()) if extract else None
        return CriticalityReport(None, (), False, True, core)
    q = base.exact
    rows = _Rows(h, q, base.witness)
    in_h: dict[int, Optional[int]] = {}
    rows.decide(budget, in_h)

    def in_h_row(e: int) -> Optional[int]:
        return in_h[e] if e in in_h else rows.q_without([], e, budget, in_h)

    core = None
    if extract:
        removed: list[int] = []
        in_core: dict[int, Optional[int]] = {}
        core_complete = True
        for e in range(h.m):
            if in_h.get(e) == q - 1 or in_core.get(e) == q - 1:
                continue
            q_without = rows.q_without(removed, e, budget, in_core) if removed else in_h_row(e)
            # A row critical in h is critical in h' too.
            if q_without is None and in_h_row(e) == q - 1:
                continue
            if q_without is None:
                core_complete = False
                break
            if q_without == q:
                removed.append(e)
                in_h[e] = q
        core = CriticalCore(h.without(removed), core_complete, tuple(removed))
    for e in range(h.m):
        in_h_row(e)
    # Only now is every row final: a later row's exchange can prove an
    # earlier one critical, one a search left undecided included.
    entries = []
    for e, q_without in sorted(in_h.items()):
        crit = None if q_without is None else q_without == q - 1
        entries.append(EdgeCriticality(e, h.hyperedge_degree(e), q_without, crit))
    complete = all(e.critical is not None for e in entries)
    lemma_ok = all(q - 1 <= e.degree for e in entries if e.critical)
    return CriticalityReport(q, tuple(entries), complete, lemma_ok, core)
