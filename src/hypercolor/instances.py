"""Instance generators and the deterministic RNG used throughout.

Randomized families accept an explicit integer seed and are reproducible
across platforms and processes: the generator below is a fixed 64-bit
xorshift-multiply recurrence, not Python's random module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .core import Hypergraph
from .hgr import integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class GenerationError(ValueError):
    """Raised for invalid family parameters or an unplaceable random edge.

    random_linear raises it at its retry cap ("retry cap hit"), or as soon
    as no k-set avoids every vertex pair already used ("no k-set avoids
    the used vertex pairs"): the edge the cap would fail on.
    """


class Rng:
    """xorshift64* generator: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D.

    A zero seed is replaced by a fixed odd constant since the all-zero
    state is a fixed point of the recurrence.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        self._state = state if state else _GOLDEN

    def next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12) & _MASK64
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in 0..n-1, n in 1..2**64, unbiased via rejection."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs a bound in 1..2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in lo..hi inclusive."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def sample_sorted(self, k: int, n: int) -> tuple[int, ...]:
        """k distinct integers from 0..n-1, ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.below(n))
        return tuple(sorted(chosen))

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(master: int, index: int) -> int:
    """Per-instance seed for survey position ``index`` under a master seed.

    Independent of how instances are scheduled across workers: position i
    always maps to the same seed.  Uses the splitmix64 finalizer on
    master + (i + 1) * 0x9E3779B97F4A7C15.
    """
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class FamilySpec:
    """A parsed instance-family request; unused fields stay None."""

    family: str
    n: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    order: Optional[int] = None
    size_min: Optional[int] = None
    size_max: Optional[int] = None
    seed: Optional[int] = None

    def label(self) -> str:
        """Canonical one-token description, parseable by parse_family.

        Keyed families list only the fields that are set.
        """
        params, _ = _family(self.family)
        if not params:
            return self.family
        if len(params) == 1:
            return f"{self.family}:{getattr(self, params[0])}"
        parts = []
        for key in params:
            value = getattr(self, key, None)
            if key == "sizes" and self.size_min is not None:
                value = f"{self.size_min}-{self.size_max}"
            if value is not None:
                parts.append(f"{key}={value}")
        return f"{self.family}:" + ",".join(parts)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def complete_graph(n: int) -> Hypergraph:
    """K_n as a 2-uniform hypergraph: every pair of the n vertices."""
    if n < 1:
        raise GenerationError(f"complete graph needs n >= 1, got {n}")
    return Hypergraph(n, list(combinations(range(n), 2)))


def cycle(n: int) -> Hypergraph:
    """The n-cycle as a 2-uniform hypergraph, vertices in ring order."""
    if n < 3:
        raise GenerationError(f"cycle needs n >= 3, got {n}")
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def fano() -> Hypergraph:
    """The unique triple system on 7 points with every pair in one line."""
    lines = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    return Hypergraph(7, lines)


def affine_plane(p: int) -> Hypergraph:
    """Affine plane of prime order p: p^2 points, p^2 + p lines of size p.

    Point (a, b) gets id a * p + b.  Lines with slope s and intercept c come
    first (s major, c minor), then the p vertical lines.
    """
    if not _is_prime(p):
        raise GenerationError(f"affine plane order must be prime, got {p}")
    lines = []
    for s in range(p):
        for c in range(p):
            lines.append(tuple(x * p + (s * x + c) % p for x in range(p)))
    for c in range(p):
        lines.append(tuple(c * p + y for y in range(p)))
    return Hypergraph(p * p, lines)


def projective_plane(p: int) -> Hypergraph:
    """Projective plane of prime order p: p^2+p+1 points and lines, size p+1.

    Points are the homogeneous triples over Z_p normalized so the first
    nonzero coordinate is 1, sorted lexicographically; lines use the same
    triples as coefficients, in the same order, and contain the points
    whose dot product with the coefficients vanishes mod p.
    """
    if not _is_prime(p):
        raise GenerationError(f"projective plane order must be prime, got {p}")
    triples = [(0, 0, 1)]
    triples += [(0, 1, c) for c in range(p)]
    triples += [(1, a, b) for a in range(p) for b in range(p)]
    triples.sort()
    index = {t: i for i, t in enumerate(triples)}
    lines = []
    for coeff in triples:
        u, v, w = coeff
        line = [
            index[(x, y, z)]
            for (x, y, z) in triples
            if (u * x + v * y + w * z) % p == 0
        ]
        lines.append(tuple(sorted(line)))
    return Hypergraph(len(triples), lines)


def steiner_triple(n: int) -> Hypergraph:
    """A Steiner triple system on n points for n = 3 (mod 6).

    Bose construction: with n = 3q, q = 2s+1, take the quasigroup on Z_q
    with x * y = (s+1)(x+y) mod q.  Points are (x, i) with id 3x + i.
    Triples: the q spokes {(x,0),(x,1),(x,2)}, then for each level i and
    x < y the triple {(x,i), (y,i), (x*y, i+1 mod 3)}.
    """
    if n < 3 or n % 6 != 3:
        raise GenerationError(f"this construction needs n = 3 (mod 6), got {n}")
    q = n // 3
    s = (q - 1) // 2
    triples = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(q)]
    for i in range(3):
        j = (i + 1) % 3
        for x in range(q):
            for y in range(x + 1, q):
                z = ((s + 1) * (x + y)) % q
                triples.append(tuple(sorted((3 * x + i, 3 * y + i, 3 * z + j))))
    return Hypergraph(n, triples)


_RETRIES_PER_EDGE = 1000


def _has_clique(free: list[int], cand: int, k: int) -> bool:
    """Whether k vertices of the bitmask ``cand`` are pairwise free.

    Branches on the top vertex of ``cand``, keeping its free lower
    vertices, and prunes a branch once fewer than k vertices are left.
    """
    if k == 1:
        return cand != 0
    while cand.bit_count() >= k:
        v = cand.bit_length() - 1
        cand ^= 1 << v
        if _has_clique(free, cand & free[v], k - 1):
            return True
    return False


def random_linear(n: int, m: int, k: int, seed: int) -> Hypergraph:
    """m distinct k-sets on n vertices, pairwise sharing at most one vertex.

    Rejection sampling: each edge is redrawn until it fits, up to a fixed
    cap of attempts per edge.  A GenerationError reports the edge that
    could not be placed: at the cap, or as soon as no k-set avoids every
    vertex pair already used, which is the edge the cap would fail on.
    Deterministic for a given seed.
    """
    if k < 2:
        raise GenerationError(f"linear family needs k >= 2, got {k}")
    if k > n:
        raise GenerationError(f"edge size {k} exceeds vertex count {n}")
    if m < 0:
        raise GenerationError("edge count must be non-negative")
    rng = Rng(seed)
    chosen: list[tuple[int, ...]] = []
    # free[v]: bitmask of the vertices that share no chosen edge with v.  A
    # k-set fits iff all its pairs are free; a repeated k-set repeats a pair.
    everyone = (1 << n) - 1
    free = [everyone ^ (1 << v) for v in range(n)]
    for _ in range(m):
        for attempt in range(_RETRIES_PER_EDGE):
            cand = rng.sample_sorted(k, n)
            fits = all(free[a] >> b & 1 for a, b in combinations(cand, 2))
            # With no free k-set left every later draw misses too, and the
            # RNG is not read again, so failing now changes only the reason.
            full = not fits and attempt == 0 and not _has_clique(free, everyone, k)
            if fits or full:
                break
        if not fits:
            reason = "no k-set avoids the used vertex pairs" if full else "retry cap hit"
            raise GenerationError(
                f"could not place edge {len(chosen) + 1} of {m} (n={n}, k={k}): {reason}"
            )
        chosen.append(cand)
        for a, b in combinations(cand, 2):
            free[a] &= ~(1 << b)
            free[b] &= ~(1 << a)
    return Hypergraph(n, chosen)


def random_hypergraph(
    n: int, m: int, size_range: tuple[int, int], seed: int
) -> Hypergraph:
    """m hyperedges with sizes drawn uniformly from size_range, repeats allowed."""
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise GenerationError(f"bad size range {lo}-{hi}")
    if hi > n:
        raise GenerationError(f"edge size {hi} exceeds vertex count {n}")
    if m < 0:
        raise GenerationError("edge count must be non-negative")
    rng = Rng(seed)
    edges = []
    for _ in range(m):
        size = rng.randint(lo, hi)
        edges.append(rng.sample_sorted(size, n))
    return Hypergraph(n, edges)


def _build_random(spec: FamilySpec) -> Hypergraph:
    lo = spec.size_min if spec.size_min is not None else 2
    hi = spec.size_max if spec.size_max is not None else min(3, spec.n)
    return random_hypergraph(spec.n, spec.m, (lo, hi), spec.seed or 0)


# Every family: its FamilySpec parameters in label order, and its builder.
# A family with one parameter is written name:VALUE, one with several
# name:key=value,...; "sizes" stands for size_min-size_max.  All parameters
# but the _OPTIONAL ones are required.
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[[FamilySpec], Hypergraph]]] = {
    "fano": ((), lambda s: fano()),
    "complete-graph": (("n",), lambda s: complete_graph(s.n)),
    "cycle": (("n",), lambda s: cycle(s.n)),
    "affine-plane": (("order",), lambda s: affine_plane(s.order)),
    "projective-plane": (("order",), lambda s: projective_plane(s.order)),
    "steiner-triple": (("n",), lambda s: steiner_triple(s.n)),
    "random-linear": (
        ("n", "m", "k", "seed"),
        lambda s: random_linear(s.n, s.m, s.k, s.seed or 0),
    ),
    "random": (("n", "m", "sizes", "seed"), _build_random),
}
_OPTIONAL = ("sizes", "seed")


def _family(name: str) -> tuple[tuple[str, ...], Callable[[FamilySpec], Hypergraph]]:
    if name not in _FAMILIES:
        raise GenerationError(f"unknown family {name!r}")
    return _FAMILIES[name]


def generate(spec: FamilySpec) -> Hypergraph:
    """Build the hypergraph a FamilySpec describes."""
    params, build = _family(spec.family)
    missing = [p for p in params if p not in _OPTIONAL and getattr(spec, p) is None]
    if missing:
        raise GenerationError(f"{spec.family} needs {', '.join(missing)}")
    return build(spec)


def parse_family(text: str) -> FamilySpec:
    """Parse a one-token family description.

    Grammar: ``fano``, ``complete-graph:N``, ``cycle:N``,
    ``affine-plane:P``, ``projective-plane:P``, ``steiner-triple:N``,
    ``random-linear:n=N,m=M,k=K[,seed=S]``,
    ``random:n=N,m=M[,sizes=LO-HI][,seed=S]``.  Every number is read by
    hgr.integer: ASCII decimal digits, so '+1', '1_0' and '٣' are errors.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    params, _ = _family(head)
    if not params:
        if rest:
            raise GenerationError(f"{head} takes no parameters")
        return FamilySpec(head)
    if len(params) == 1:
        try:
            value = integer(rest)
        except ValueError:
            raise GenerationError(
                f"{head} needs an integer {params[0]}, got {rest!r}"
            )
        return FamilySpec(head, **{params[0]: value})
    fields: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise GenerationError(f"expected key=value, got {part!r}")
            key = key.strip()
            if key in fields:
                raise GenerationError(f"{head} parameter {key!r} is given twice")
            fields[key] = value.strip()
    unknown = set(fields) - set(params)
    if unknown:
        raise GenerationError(
            f"{head} takes {', '.join(params)}; unknown parameters {sorted(unknown)}"
        )
    values: dict[str, int] = {}
    for key, text_value in fields.items():
        try:
            if key == "sizes":
                lo_txt, dash, hi_txt = text_value.partition("-")
                values["size_min"] = integer(lo_txt)
                values["size_max"] = integer(hi_txt) if dash else values["size_min"]
            else:
                values[key] = integer(text_value)
        except ValueError:
            expected = "LO-HI" if key == "sizes" else "an integer"
            raise GenerationError(f"{key} must be {expected}, got {text_value!r}")
    return FamilySpec(head, **values)


def _check_survey_input(
    n_range: tuple[int, int], m_range: tuple[int, int], k_choices: tuple[int, ...]
) -> None:
    """Raise GenerationError on survey input that survey_instance cannot
    sample: a range with LO > HI or over 2**64 wide (one Rng draw), vertex
    counts below 2, edge counts below 1, or no edge size, or one below 2."""
    for name, (lo, hi), least in (("n", n_range, 2), ("m", m_range, 1)):
        if lo > hi:
            raise GenerationError(f"survey {name} range is empty: {lo}..{hi}")
        if hi - lo >= 1 << 64:
            raise GenerationError(f"survey {name} range is over 2**64 wide: {lo}..{hi}")
        if lo < least:
            raise GenerationError(
                f"survey {name} range must start at {least} or more, got {lo}..{hi}"
            )
    if not k_choices or min(k_choices) < 2:
        sizes = ",".join(map(str, k_choices)) or "none"
        raise GenerationError(f"survey edge sizes must be at least 2, got {sizes}")


def survey_instance(
    master_seed: int,
    index: int,
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    k_choices: tuple[int, ...],
) -> tuple[FamilySpec, Hypergraph]:
    """The index-th random linear instance of a survey.

    Parameters are drawn from an RNG seeded by derive_seed(master, index),
    so the mapping from index to instance does not depend on worker
    scheduling.  The edge count is clamped to the pair budget
    C(n,2) / C(k,2) that linearity imposes, and on a rejection-cap failure
    the draw retries with a fresh generator seed and one edge fewer, down
    to one edge, which always fits.  So the procedure terminates whenever
    n_range starts at 2 or more, m_range at 1 or more, both ranges are
    LO <= HI and every size in k_choices is at least 2; other input raises
    GenerationError (see _check_survey_input).
    """
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
