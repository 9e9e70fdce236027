"""Deterministic renderings of results, as key: value text or JSON.

Reports are reproducible byte for byte: they carry no timestamps or
timings, sets are emitted sorted, and JSON keys are sorted.  Each report
names the tool version and the sha256 of the canonical serialization of
its input.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Optional

from .analysis import HOLDS, UNRESOLVED, VIOLATED, InequalityReport, Verdict
from .coloring import Coloring
from .core import Hypergraph
from .hgr import digest
from .oracle import CriticalityReport

TOOL_VERSION = "0.1.0"
_TOOL = f"hypercolor {TOOL_VERSION}"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _header(h: Hypergraph) -> list[str]:
    return [f"tool: {_TOOL}", f"input-sha256: {digest(h)}"]


def _json(payload: dict, h: Optional[Hypergraph] = None) -> str:
    """payload as sorted JSON under the tool name and, given h, its digest."""
    header = {"tool": _TOOL}
    if h is not None:
        header["input_sha256"] = digest(h)
    return json.dumps({**header, **payload}, indent=2, sort_keys=True) + "\n"


def _field_lines(record, prefix: str = "") -> list[str]:
    """One key: value line per dataclass field, keys hyphenated."""
    return [
        f"{prefix}{f.name.replace('_', '-')}: {_fmt(getattr(record, f.name))}"
        for f in fields(record)
    ]


def _flat(record) -> dict:
    """A dataclass of scalar fields as a dict, without asdict's deep copies."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _witness_line(coloring: Coloring) -> str:
    return "witness: " + (" ".join(map(str, coloring.colors)) or "empty")


def render_stats(h: Hypergraph) -> str:
    return "\n".join(_header(h) + _field_lines(h.stats())) + "\n"


def stats_json(h: Hypergraph) -> str:
    return _json({"stats": _flat(h.stats())}, h)


def render_coloring(h: Hypergraph, coloring: Coloring, method: str) -> str:
    lines = _header(h) + [
        f"method: {method}",
        f"colors-used: {coloring.q_used}",
        _witness_line(coloring),
    ]
    return "\n".join(lines) + "\n"


def coloring_json(h: Hypergraph, coloring: Coloring, method: str) -> str:
    payload = {
        "method": method,
        "colors_used": coloring.q_used,
        "colors": list(coloring.colors),
    }
    return _json(payload, h)


def _verdict_lines(v: Verdict) -> list[str]:
    lines = _field_lines(v.stats) + _field_lines(v.bounds, "bound-")
    lines += [
        "conditions: "
        + (" ".join(sorted(v.conditions)) if v.conditions else "none"),
        f"q-lower: {v.q_lower}",
        f"q-upper: {v.q_upper}",
        f"q-exact: {_fmt(v.q_exact)}",
        f"status: {v.status}",
        f"efl-within-vertex-count: {_fmt(v.efl_ok)}",
        f"oracle-nodes: {v.oracle_nodes}",
        _witness_line(v.witness),
    ]
    return lines


def render_verdict(h: Hypergraph, v: Verdict) -> str:
    return "\n".join(_header(h) + _verdict_lines(v)) + "\n"


def verdict_dict(v: Verdict) -> dict:
    """JSON-ready payload for one verdict (no header)."""
    return {
        "stats": _flat(v.stats),
        "bounds": _flat(v.bounds),
        "conditions": sorted(v.conditions),
        "q_lower": v.q_lower,
        "q_upper": v.q_upper,
        "q_exact": v.q_exact,
        "status": v.status,
        "efl_within_vertex_count": v.efl_ok,
        "oracle_nodes": v.oracle_nodes,
        "witness": list(v.witness.colors),
    }


def verdict_json(h: Hypergraph, v: Verdict) -> str:
    return _json(verdict_dict(v), h)


def render_inequalities(rep: InequalityReport) -> list[str]:
    lines = []
    for check in rep.checks:
        scope = "checked" if check.applicable else "skipped"
        lines.append(
            f"check {check.name}: {scope} "
            f"{'ok' if check.ok else 'FAILED'} ({check.detail})"
        )
    return lines


def render_criticality(h: Hypergraph, rep: CriticalityReport) -> str:
    lines = _header(h) + [f"q-exact: {_fmt(rep.q)}", f"complete: {_fmt(rep.complete)}"]
    for entry in rep.entries:
        lines.append(
            f"hyperedge {entry.position}: degree {entry.degree} "
            f"q-without {_fmt(entry.q_without)} critical {_fmt(entry.critical)}"
        )
    lines.append(f"degree-dominates-q-minus-one: {_fmt(rep.lemma_ok)}")
    core = rep.core
    if core is not None:
        lines.append(f"core-complete: {_fmt(core.complete)}")
        lines.append(f"core-q: {_fmt(rep.q)}")
        lines.append(
            "core-removed-positions: "
            + (" ".join(map(str, core.removed)) if core.removed else "none")
        )
        lines.append(f"core-m: {core.hypergraph.m}")
        for edge in core.hypergraph.edges:
            lines.append("core-edge: " + " ".join(str(v) for v in edge))
    return "\n".join(lines) + "\n"


def criticality_json(h: Hypergraph, rep: CriticalityReport) -> str:
    payload = {
        "q_exact": rep.q,
        "complete": rep.complete,
        "entries": [_flat(e) for e in rep.entries],
        "degree_dominates_q_minus_one": rep.lemma_ok,
    }
    core = rep.core
    if core is not None:
        payload["core"] = {
            "complete": core.complete,
            "q": rep.q,
            "removed_positions": list(core.removed),
            "n": core.hypergraph.n,
            "edges": [list(e) for e in core.hypergraph.edges],
        }
    return _json(payload, h)


def _survey_totals(rows: list[dict]) -> dict:
    statuses = [row["status"] for row in rows]
    return {s.lower(): statuses.count(s) for s in (HOLDS, VIOLATED, UNRESOLVED)}


def render_survey(master_seed: int, rows: list[dict]) -> str:
    """One line per survey row, then the totals by status."""
    lines = [f"tool: {_TOOL}", f"master-seed: {master_seed}"]
    for row in rows:
        q = row["q_exact"]
        q_text = str(q) if q is not None else f"[{row['q_lower']},{row['q_upper']}]"
        conds = ",".join(row["conditions"]) if row["conditions"] else "none"
        lines.append(
            f"[{row['index']}] family={row['family']} n={row['n']} "
            f"m={row['m']} k={row['k']} "
            f"delta2={row['stats']['two_section_max_degree']} "
            f"q={q_text} bound={row['bounds']['two_section']} "
            f"status={row['status']} conditions={conds}"
        )
    lines.append(f"instances: {len(rows)}")
    lines += [f"{key}: {count}" for key, count in _survey_totals(rows).items()]
    return "\n".join(lines) + "\n"


def survey_json(master_seed: int, rows: list[dict]) -> str:
    return _json({"master_seed": master_seed, "instances": rows, **_survey_totals(rows)})
