"""Plain-text hypergraph files.

The format is DIMACS-like: lines whose first non-blank character is 'c'
are comments, one problem line ``p hgr <n> <m>`` precedes the data, and
each hyperedge is a line ``e v1 v2 ... vk`` with 1-based vertex ids.
Blank lines are ignored.  serialize_hgr emits a canonical form (no
comments, vertices ascending) so that parse(serialize(h)) == h and equal
hypergraphs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .core import Hypergraph, _presorted


class HgrParseError(ValueError):
    """A malformed hypergraph file; carries the offending line number."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def integer(text: str) -> int:
    """int(text) for ASCII decimal digits after an optional minus sign,
    with surrounding whitespace; int() alone would also read '+1', '1_0'
    and non-ASCII digits.  Files, family strings and the command line all
    read their integers through this one rule."""
    token = text.strip()
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(token)


def parse_hgr(text: str) -> Hypergraph:
    """Parse file contents into a Hypergraph.

    Raises HgrParseError, with a line number, on any deviation from the
    format: missing or repeated problem line, unknown line type, n, m or
    a vertex id that is not ASCII decimal digits, vertex ids outside
    1..n, repeated vertices inside an edge, or an edge count that
    disagrees with the problem line.
    """
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
            # One check over the whole line: ids of ASCII digits, distinct
            # and in 1..n are the edge as they stand.  Any other line, one
            # whose id int() refuses for its length among them, is read
            # again token by token, only to word the error.
            ids = tokens[1:]
            digits = "".join(ids)
            edge = None
            if digits.isascii() and digits.isdigit():
                try:
                    vs = sorted({int(tok) - 1 for tok in ids})
                except ValueError:
                    pass
                else:
                    if len(vs) == len(ids) and vs[0] >= 0 and vs[-1] < n:
                        edge = tuple(vs)
            edges.append(edge or _checked_edge(ids, n, line_no))
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
    return _presorted(n, tuple(edges))


def _checked_edge(ids: list[str], n: int, line_no: int) -> tuple[int, ...]:
    """The 0-based edge of an e line's ids, each read on its own: the first
    id that is not an integer or lies outside 1..n, or else a repeated
    one, is a parse error."""
    vs = []
    for tok in ids:
        try:
            v = integer(tok)
        except ValueError:
            raise HgrParseError(f"bad vertex id {tok!r}", line_no)
        if not 1 <= v <= n:
            raise HgrParseError(f"vertex id {v} outside 1..{n}", line_no)
        vs.append(v - 1)
    if len(set(vs)) != len(vs):
        raise HgrParseError("repeated vertex in hyperedge", line_no)
    return tuple(sorted(vs))


def serialize_hgr(h: Hypergraph) -> str:
    """Canonical file contents for h."""
    lines = [f"p hgr {h.n} {h.m}"] + [
        "e " + " ".join([str(v + 1) for v in edge]) for edge in h.edges
    ]
    return "\n".join(lines) + "\n"


def parse_hgr_bytes(data: bytes) -> Hypergraph:
    """parse_hgr on raw file bytes; bytes that are not UTF-8 are a parse error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HgrParseError(f"input is not UTF-8 text (byte {exc.start})") from None
    return parse_hgr(text)


def load(path: str) -> Hypergraph:
    with open(path, "rb") as fh:
        return parse_hgr_bytes(fh.read())


def dump(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_hgr(h))


def digest(h: Hypergraph) -> str:
    """sha256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_hgr(h).encode("utf-8")).hexdigest()
