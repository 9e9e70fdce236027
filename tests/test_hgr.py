"""Text format: parsing with line-numbered errors, canonical output, digests."""

from __future__ import annotations

import pytest

from hypercolor import (
    HgrParseError,
    Hypergraph,
    Rng,
    digest,
    dump,
    fano,
    load,
    parse_hgr,
    serialize_hgr,
)

from brute import random_hypergraph_raw


def test_parse_basic_file_with_comments_and_blanks():
    text = """c a triangle plus a pendant triple
p hgr 5 4

e 1 2
e 2 3
c vertices are 1-based in files
e 1 3
e 3 4 5
"""
    h = parse_hgr(text)
    assert h.n == 5
    assert h.edges == ((0, 1), (1, 2), (0, 2), (2, 3, 4))


def test_parse_accepts_empty_hypergraphs_and_isolated_vertices():
    h = parse_hgr("p hgr 4 0\n")
    assert h.n == 4
    assert h.m == 0
    loops = parse_hgr("p hgr 2 1\ne 2\n")
    assert loops.edges == ((1,),)


def test_serialize_is_canonical_and_round_trips():
    h = fano()
    text = serialize_hgr(h)
    assert text.startswith("p hgr 7 7\n")
    assert text.endswith("\n")
    assert parse_hgr(text) == h
    for seed in range(25):
        g = random_hypergraph_raw(Rng(seed + 15_000))
        assert parse_hgr(serialize_hgr(g)) == g


def test_serialize_equal_inputs_byte_identically():
    a = Hypergraph(3, [(2, 0, 1), (1, 0)])
    b = Hypergraph(3, [(0, 1, 2), (0, 1)])
    assert a == b
    assert serialize_hgr(a) == serialize_hgr(b)
    assert digest(a) == digest(b)
    assert len(digest(a)) == 64
    assert digest(a) != digest(fano())


def test_parse_errors_carry_line_numbers():
    cases = [
        ("e 1 2\np hgr 3 1\n", 1, "edge before problem line"),
        ("p hgr 3 1\np hgr 3 1\ne 1 2\n", 2, "second problem line"),
        ("p hgr x 1\ne 1 2\n", 1, "must be integers"),
        ("p hgr 3\ne 1 2\n", 1, "problem line must be"),
        ("p hgr -1 0\n", 1, "non-negative"),
        ("p hgr 3 1\nq 1 2\n", 2, "unknown line type"),
        ("p hgr 3 1\ne\n", 2, "empty hyperedge"),
        ("p hgr 3 1\ne 1 zebra\n", 2, "bad vertex id"),
        ("p hgr 3 1\ne 0 1\n", 2, "outside 1..3"),
        ("p hgr 3 1\ne 1 4\n", 2, "outside 1..3"),
        ("p hgr 3 1\ne 2 2\n", 2, "repeated vertex"),
        ("p hgr 3 1\ne 1 2\ne 2 3\n", 3, "more than the declared"),
        # int() reads these; the format takes ASCII decimal digits only.
        ("p hgr 1_0 1\ne 1 2\n", 1, "must be integers"),
        ("p hgr 3 1\ne +1 2\n", 2, "bad vertex id '+1'"),
        ("p hgr 3 1\ne 1 \u0661\n", 2, "bad vertex id"),
    ]
    for text, line_no, fragment in cases:
        with pytest.raises(HgrParseError) as err:
            parse_hgr(text)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}:")
        assert fragment in str(err.value)


def test_parse_errors_without_a_single_culprit_line():
    with pytest.raises(HgrParseError) as missing:
        parse_hgr("c nothing here\n")
    assert missing.value.line_no is None
    with pytest.raises(HgrParseError) as short:
        parse_hgr("p hgr 3 2\ne 1 2\n")
    assert "declared 2 hyperedges but found 1" in str(short.value)


def test_load_and_dump(tmp_path):
    path = tmp_path / "instance.hgr"
    dump(fano(), str(path))
    assert load(str(path)) == fano()
    assert path.read_text(encoding="utf-8") == serialize_hgr(fano())
