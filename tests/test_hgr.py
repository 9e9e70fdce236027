"""Text format: parsing with line-numbered errors, canonical output, digests."""

from __future__ import annotations

import tracemalloc

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
from hypercolor.hgr import parse_hgr_bytes

from brute import per_token_parse_hgr, per_token_parse_hgr_bytes, random_hypergraph_raw


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


def test_reading_and_writing_a_file_allocates_nothing_sized_by_n():
    # 3,000,000 vertices and one edge: the parser, the serializer and the
    # digest work per edge, so none builds a table of the vertices.
    tracemalloc.start()
    try:
        h = parse_hgr("p hgr 3000000 1\ne 1 2\n")
        text = serialize_hgr(h)
        digest(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "p hgr 3000000 1\ne 1 2\n"
    assert peak < 1 << 20


def _outcome(parse, data):
    """What parse makes of data: the hypergraph, or the error's text and
    line number."""
    try:
        return parse(data)
    except HgrParseError as exc:
        return str(exc), exc.line_no


def _assert_parses_as_the_per_token_reference(text: str) -> None:
    # Hypergraphs are equal only with equal tuples of tuples as edges.
    assert _outcome(parse_hgr, text) == _outcome(per_token_parse_hgr, text), text[:200]


# A 5,000-digit id is past int()'s default limit on digits, which refuses
# it with ValueError; it must still word "bad vertex id".
_LONG_ID = "9" * 5000
_ODD_IDS = ("+1", "1_0", "\u0663", "-1", "-0", "0", "01", "1.0", "0x1", _LONG_ID)


def _mutated(rng: Rng, h: Hypergraph) -> str:
    """h's canonical file with one to three edits: an odd id (bad or out
    of range, or a valid one with a leading zero), a repeated id, a bare
    'e', an edge added or dropped against the problem line, an edge's ids
    out of order, tabs, indentation, comments and blank lines, joined by
    LF or CRLF with or without a final line break."""
    lines = serialize_hgr(h).splitlines()
    n = h.n
    for _ in range(rng.randint(1, 3)):
        op = rng.below(9)
        e_lines = [i for i, line in enumerate(lines) if line.startswith("e")]
        if op == 0 and e_lines:
            i = e_lines[rng.below(len(e_lines))]
            tokens = lines[i].split()
            if len(tokens) > 1:
                odd = (*_ODD_IDS, str(n + 1), str(n))[rng.below(len(_ODD_IDS) + 2)]
                tokens[rng.randint(1, len(tokens) - 1)] = odd
                lines[i] = " ".join(tokens)
        elif op == 1 and e_lines:
            i = e_lines[rng.below(len(e_lines))]
            tokens = lines[i].split()
            if len(tokens) > 1:
                tokens.append(tokens[rng.randint(1, len(tokens) - 1)])
                lines[i] = " ".join(tokens)
        elif op == 2 and e_lines:
            lines[e_lines[rng.below(len(e_lines))]] = "e"
        elif op == 3 and e_lines:
            lines.append(lines[e_lines[rng.below(len(e_lines))]])
        elif op == 4 and e_lines:
            del lines[e_lines[rng.below(len(e_lines))]]
        elif op == 5 and e_lines:
            i = e_lines[rng.below(len(e_lines))]
            tokens = lines[i].split()
            lines[i] = " ".join([tokens[0], *reversed(tokens[1:])])
        elif op == 6:
            i = rng.below(len(lines))
            lines[i] = lines[i].replace(" ", "\t", rng.randint(1, 3))
        elif op == 7:
            i = rng.below(len(lines))
            lines[i] = (" ", "\t", "")[rng.below(3)] + lines[i] + (" ", "\t ", "")[rng.below(3)]
        else:
            lines.insert(rng.below(len(lines) + 1), ("c note", "", "  ", "c")[rng.below(4)])
    end = ("\n", "\r\n")[rng.below(2)]
    return end.join(lines) + (end if rng.below(4) else "")


def test_the_parser_reads_files_as_the_per_token_reference():
    # Hand cases first: each odd id at each place on an edge line, then
    # the other deviations the parser words.
    for odd in (*_ODD_IDS, "4", "\u0663\u0663", "\uff11"):
        for line in (f"e {odd} 2 3", f"e 1 {odd} 3", f"e 1 2 {odd}", f"e {odd}"):
            _assert_parses_as_the_per_token_reference(f"p hgr 3 1\n{line}\n")
    for text in (
        "p hgr 3 1\ne 1 2 1\n",
        "p hgr 3 1\ne 2 02\n",
        "p hgr 3 1\ne\n",
        "p hgr 3 1\ne 1 2\ne 2 3\n",
        "p hgr 3 2\ne 1 2\n",
        "p hgr 3 2\r\n\te\t3\t1 \r\nc x\r\n\r\n e 2\r\n",
        "p hgr 0 1\ne 1\n",
        f"p hgr 3 1\ne 1 {_LONG_ID} zebra\n",
        f"p hgr 3 1\ne zebra {_LONG_ID}\n",
        "p hgr 3 1\ne 1 +2 3\n",
    ):
        _assert_parses_as_the_per_token_reference(text)
    rng = Rng(43)
    for seed in range(400):
        h = random_hypergraph_raw(Rng(seed + 43_000), n_lo=1, m_hi=6)
        _assert_parses_as_the_per_token_reference(serialize_hgr(h))
        _assert_parses_as_the_per_token_reference(_mutated(rng, h))


def test_bytes_parse_as_the_per_token_reference():
    rng = Rng(4343)
    for seed in range(100):
        data = _mutated(rng, random_hypergraph_raw(Rng(seed + 4_343))).encode("utf-8")
        cut = rng.below(len(data) + 1)
        bad = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")[rng.below(4)]
        for variant in (data, data[:cut] + bad + data[cut:]):
            want = _outcome(per_token_parse_hgr_bytes, variant)
            assert _outcome(parse_hgr_bytes, variant) == want, variant
