"""Independent checks of the CLI's reports.

Nothing here imports hypercolor: the checks parse the reports as text or
JSON and verify them against the input hypergraph with their own code, so
a defect in the program cannot hide itself by also breaking its checker.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Optional

EXPECTED_EXIT = 0


def serialize(n: int, edges) -> str:
    """Canonical hgr text: the problem line, then 1-based sorted edges."""
    lines = [f"p hgr {n} {len(edges)}"]
    lines += ["e " + " ".join(str(v + 1) for v in sorted(edge)) for edge in edges]
    return "\n".join(lines) + "\n"


def input_digest(n: int, edges) -> str:
    return hashlib.sha256(serialize(n, edges).encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one CLI call's checks found.

    ``failed`` counts failed operations (survey instances count singly);
    ``brackets`` holds every reported (q_lower, q_upper); ``nodes`` is the
    oracle node count the report states, when it states one.
    """

    instances: int = 1
    notes: list = field(default_factory=list)
    brackets: list = field(default_factory=list)
    nodes: Optional[int] = None
    failed_rows: set = field(default_factory=set)

    def fail(self, note: str, row: Optional[int] = None) -> None:
        """Record a problem with one survey row, or (row None) the whole call."""
        self.notes.append(note)
        self.failed_rows.update(range(self.instances) if row is None else (row,))

    @property
    def failed(self) -> int:
        return len(self.failed_rows)


def coloring_problems(n: int, edges, colors: list, q_upper: int) -> list:
    """Why ``colors`` (one per edge position) is not a proper coloring with
    exactly q_upper colors; empty when it is one."""
    problems = []
    if len(colors) != len(edges):
        return [f"witness has {len(colors)} colors for {len(edges)} edges"]
    if set(colors) != set(range(1, q_upper + 1)):
        problems.append(f"witness palette is not exactly 1..{q_upper}")
    seen: list = [dict() for _ in range(n)]
    for pos, (edge, color) in enumerate(zip(edges, colors)):
        for v in edge:
            other = seen[v].get(color)
            if other is not None:
                problems.append(
                    f"edges {other} and {pos} share vertex {v} and color {color}"
                )
                return problems
            seen[v][color] = pos
    return problems


def _verdict(out: Outcome, hypergraph, fields: dict, expect: dict) -> None:
    n, edges = hypergraph
    if fields["sha"] != input_digest(n, edges):
        out.fail("report input-sha256 does not match the input")
    lo, hi, exact = fields["q_lower"], fields["q_upper"], fields["q_exact"]
    out.brackets.append((lo, hi))
    out.nodes = fields["nodes"]
    if not fields["max_degree"] <= lo <= hi:
        out.fail(f"bracket [{lo},{hi}] is not above max degree {fields['max_degree']}")
    if exact != (lo if lo == hi else None):
        out.fail(f"q-exact {exact} disagrees with bracket [{lo},{hi}]")
    if fields["status"] == "VIOLATED":
        out.fail("verdict VIOLATED")
    for problem in coloring_problems(n, edges, fields["witness"], hi):
        out.fail(problem)
    if "q_exact" in expect and exact != expect["q_exact"]:
        out.fail(f"q-exact {exact}, expected {expect['q_exact']}")


def _int_or_none(text: str) -> Optional[int]:
    return None if text == "none" else int(text)


def check_verify_text(stdout: str, hypergraph, expect: dict) -> Outcome:
    out = Outcome()
    kv, checks = {}, []
    for line in stdout.splitlines():
        if line.startswith("check "):
            checks.append(line)
        else:
            key, _, value = line.partition(": ")
            kv[key] = value
    try:
        witness = kv["witness"]
        fields = {
            "sha": kv["input-sha256"],
            "max_degree": int(kv["max-degree"]),
            "q_lower": int(kv["q-lower"]),
            "q_upper": int(kv["q-upper"]),
            "q_exact": _int_or_none(kv["q-exact"]),
            "status": kv["status"],
            "nodes": int(kv["oracle-nodes"]),
            "witness": [] if witness == "empty" else [int(c) for c in witness.split()],
        }
    except (KeyError, ValueError) as exc:
        out.fail(f"unreadable verify report: {exc!r}")
        return out
    _verdict(out, hypergraph, fields, expect)
    if expect.get("inequalities"):
        if len(checks) != 3:
            out.fail(f"expected 3 inequality lines, got {len(checks)}")
        for line in checks:
            if ": checked ok" not in line and ": skipped ok" not in line:
                out.fail(f"inequality not ok: {line}")
    return out


def check_verify_json(stdout: str, hypergraph, expect: dict) -> Outcome:
    out = Outcome()
    try:
        doc = json.loads(stdout)
        fields = {
            "sha": doc["input_sha256"],
            "max_degree": doc["stats"]["max_degree"],
            "q_lower": doc["q_lower"],
            "q_upper": doc["q_upper"],
            "q_exact": doc["q_exact"],
            "status": doc["status"],
            "nodes": doc["oracle_nodes"],
            "witness": doc["witness"],
        }
    except (KeyError, TypeError, ValueError) as exc:
        out.fail(f"unreadable verify JSON: {exc!r}")
        return out
    _verdict(out, hypergraph, fields, expect)
    return out


def check_critical(stdout: str, hypergraph) -> Outcome:
    """A complete criticality table and a complete core with the base q."""
    out = Outcome()
    n, edges = hypergraph
    kv, rows, core_edges = {}, [], []
    for line in stdout.splitlines():
        if line.startswith("hyperedge "):
            rows.append(line)
        elif line.startswith("core-edge: "):
            core_edges.append(tuple(int(v) for v in line[len("core-edge: "):].split()))
        else:
            key, _, value = line.partition(": ")
            kv[key] = value
    try:
        q = int(kv["q-exact"])
        core_q = int(kv["core-q"])
        core_m = int(kv["core-m"])
        sha = kv["input-sha256"]
        flags = [kv[k] for k in ("complete", "degree-dominates-q-minus-one", "core-complete")]
    except (KeyError, ValueError) as exc:
        out.fail(f"unreadable criticality report: {exc!r}")
        return out
    out.brackets.append((q, q))
    if sha != input_digest(n, edges):
        out.fail("report input-sha256 does not match the input")
    if flags != ["yes", "yes", "yes"]:
        out.fail(f"complete / lemma / core-complete flags are {flags}")
    if core_q != q:
        out.fail(f"core q {core_q} differs from base q {q}")
    if len(rows) != len(edges):
        out.fail(f"{len(rows)} criticality rows for {len(edges)} edges")
    for row in rows:
        match = re.fullmatch(
            r"hyperedge \d+: degree \d+ q-without (\d+) critical (yes|no)", row
        )
        if match is None or int(match[1]) not in (q - 1, q):
            out.fail(f"bad criticality row: {row}")
        elif (match[2] == "yes") != (int(match[1]) == q - 1):
            out.fail(f"criticality disagrees with q-without: {row}")
    remaining = [tuple(sorted(e)) for e in edges]
    for edge in core_edges:
        if edge not in remaining:
            out.fail(f"core edge {edge} is not an input edge")
            break
        remaining.remove(edge)
    if core_m != len(core_edges):
        out.fail(f"core-m {core_m} but {len(core_edges)} core edges")
    return out


_SURVEY_ROW = re.compile(
    r"\[(\d+)\] family=\S+ n=\d+ m=\d+ k=\d+ delta2=(\d+) "
    r"q=(\d+|\[(\d+),(\d+)\]) bound=(\d+) status=(\w+) conditions=\S+"
)


def check_survey(stdout: str, count: int) -> Outcome:
    """Every row present and in order, no VIOLATED, totals consistent."""
    out = Outcome(count)
    lines = stdout.splitlines()
    rows = [line for line in lines if line.startswith("[")]
    tail = dict(line.partition(": ")[::2] for line in lines if not line.startswith("["))
    if len(rows) != count:
        out.fail(f"{len(rows)} survey rows for {count} instances")
        return out
    statuses = {"HOLDS": 0, "VIOLATED": 0, "UNRESOLVED": 0}
    for index, row in enumerate(rows):
        match = _SURVEY_ROW.fullmatch(row)
        if match is None or int(match[1]) != index:
            out.fail(f"bad survey row {index}: {row}", index)
            continue
        delta2, bound, status = int(match[2]), int(match[6]), match[7]
        lo = hi = int(match[3]) if match[4] is None else None
        if lo is None:
            lo, hi = int(match[4]), int(match[5])
        out.brackets.append((lo, hi))
        statuses[status] = statuses.get(status, 0) + 1
        if bound != delta2 + 1 or lo > hi:
            out.fail(f"inconsistent survey row: {row}", index)
        elif status == "VIOLATED" or (status == "HOLDS" and lo > bound):
            out.fail(f"survey row {index} is {status} with q in [{lo},{hi}]", index)
    expected_tail = {
        "instances": str(count),
        "holds": str(statuses["HOLDS"]),
        "violated": str(statuses["VIOLATED"]),
        "unresolved": str(statuses["UNRESOLVED"]),
    }
    if any(tail.get(k) != v for k, v in expected_tail.items()):
        out.fail("survey totals disagree with its rows")
    return out


def check(op, code: int, stdout: str) -> Outcome:
    """Check one CLI call of a workload: exit code, then its report."""
    if op.kind == "survey":
        out = check_survey(stdout, op.instances)
    elif op.kind == "critical":
        out = check_critical(stdout, op.hypergraph)
    elif op.kind == "verify-json":
        out = check_verify_json(stdout, op.hypergraph, op.expect)
    else:
        out = check_verify_text(stdout, op.hypergraph, op.expect)
    if code != EXPECTED_EXIT:
        out.fail(f"exit code {code}, expected {EXPECTED_EXIT}")
    return out
