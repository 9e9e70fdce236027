"""The benchmark's workloads: inputs built from the workload seed, and the
CLI calls that run on them.

Every exact call gets an explicit node budget and ``--time-limit 0``, so
node counts, brackets and reports depend only on the seed and the code,
never on the machine.  Instances whose generation fails for a derived seed
(the linear rejection sampler can hit its retry cap) are skipped in setup
by moving to the next derived seed, so no benchmarked operation fails on
purpose.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from checks import serialize

_MASK64 = (1 << 64) - 1

# Node budget per exact call.  STS(15) is solved exactly (35,373 nodes);
# the other oracle-deep instances stop at their budget, so better pruning
# there shows as narrower brackets, not as less time.
ORACLE_DEEP = (
    ("steiner-triple:15", 100_000),
    ("steiner-triple:21", 20_000),
    ("steiner-triple:27", 16_000),
    ("random-linear:n=40,m=80,k=4", 10_000),
)
# critical-core alternates two small shapes.  Larger shapes have a heavy
# tail (one seed of n=22,m=36,k=3 needs 1.3M nodes and 30 s), which would
# make the workload's cost depend on the seed rather than on the code.
CRITICAL_SHAPES = ((16, 22, 3), (20, 16, 4))
CRITICAL_COUNT = 120
CRITICAL_BUDGET = 200_000
# Several survey calls rather than one long one, so that every call is
# timed between two nearby probes of the host's speed.
SURVEY_CALLS = 8
SURVEY_COUNT = 100
SURVEY_BUDGET = 100_000
LARGE_STRUCTURE = ("steiner-triple:99", "random-linear:n=120,m=600,k=4", "projective-plane:11")
LARGE_BUDGET = 100_000

WORKLOADS = ("oracle-deep", "critical-core", "survey", "survey-jobs2", "large-structure")


def budgets() -> dict:
    """Every node budget the workloads pass, keyed by workload."""
    return {
        "oracle-deep": dict(ORACLE_DEEP),
        "critical-core": CRITICAL_BUDGET,
        "survey": SURVEY_BUDGET,
        "survey-jobs2": SURVEY_BUDGET,
        "large-structure": LARGE_BUDGET,
    }


def mix(*parts: int) -> int:
    """A 32-bit seed from integer parts, by chained splitmix64 finalizers.

    The benchmark derives its inputs with its own function so that a change
    to the program's seed derivation cannot change what is benchmarked.
    """
    z = 0
    for part in parts:
        z = (z + (part & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z & 0xFFFFFFFF


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    ``instances`` is how many operations the call stands for: one, or the
    instance count of a survey.  ``hypergraph`` is (n, edges) of the input,
    for checks that need it.  ``reference`` is a second argv whose stdout
    must equal this call's byte for byte; it runs once per benchmark run,
    outside the timed part.
    """

    argv: list
    kind: str
    instances: int = 1
    hypergraph: Optional[tuple] = None
    expect: dict = field(default_factory=dict)
    reference: Optional[list] = None


def _budget_flags(nodes: int) -> list:
    return ["--budget", str(nodes), "--time-limit", "0"]


def _linear(n: int, m: int, k: int, *salt: int):
    """(seed, hypergraph) for the first derived seed that generates."""
    from hypercolor import GenerationError, random_linear

    attempt = 0
    while True:
        s = mix(*salt, n, m, k, attempt)
        try:
            return s, random_linear(n, m, k, s)
        except GenerationError:
            attempt += 1


def _graph(h) -> tuple:
    return (h.n, h.edges)


def oracle_deep(seed: int, workdir: str) -> list:
    from hypercolor import generate, parse_family

    ops = []
    for index, (family, nodes) in enumerate(ORACLE_DEEP):
        if family.startswith("random-linear"):
            s, h = _linear(40, 80, 4, seed, index)
            family = f"{family},seed={s}"
        else:
            h = generate(parse_family(family))
        expect = {"q_exact": 9} if family == "steiner-triple:15" else {}
        ops.append(
            Op(
                ["verify", "--family", family, *_budget_flags(nodes)],
                "verify-text",
                hypergraph=_graph(h),
                expect=expect,
            )
        )
    return ops


def critical_core(seed: int, workdir: str) -> list:
    ops = []
    for index in range(CRITICAL_COUNT):
        n, m, k = CRITICAL_SHAPES[index % len(CRITICAL_SHAPES)]
        s, h = _linear(n, m, k, seed, index)
        family = f"random-linear:n={n},m={m},k={k},seed={s}"
        ops.append(
            Op(
                ["critical", "--family", family, *_budget_flags(CRITICAL_BUDGET)],
                "critical",
                hypergraph=_graph(h),
            )
        )
    return ops


def _surveys(seed: int, jobs: int) -> list:
    ops = []
    for index in range(SURVEY_CALLS):
        argv = [
            "survey",
            "--count",
            str(SURVEY_COUNT),
            "--seed",
            str(mix(seed, index)),
            *_budget_flags(SURVEY_BUDGET),
            "--jobs",
            str(jobs),
        ]
        reference = argv[:-1] + ["1"] if jobs > 1 else None
        ops.append(Op(argv, "survey", instances=SURVEY_COUNT, reference=reference))
    return ops


def survey(seed: int, workdir: str) -> list:
    return _surveys(seed, 1)


def survey_jobs2(seed: int, workdir: str) -> list:
    return _surveys(seed, 2)


def large_structure(seed: int, workdir: str) -> list:
    from hypercolor import generate, parse_family

    os.makedirs(workdir, exist_ok=True)
    ops = []
    for index, family in enumerate(LARGE_STRUCTURE):
        if family.startswith("random-linear"):
            _, h = _linear(120, 600, 4, seed, index)
        else:
            h = generate(parse_family(family))
        path = os.path.join(workdir, f"{family.split(':')[0]}.hgr")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(h.n, h.edges))
        flags = _budget_flags(LARGE_BUDGET)
        ops.append(
            Op(
                ["verify", path, "--no-exact", "--inequalities", *flags],
                "verify-text",
                hypergraph=_graph(h),
                expect={"inequalities": True},
            )
        )
        ops.append(
            Op(
                ["verify", path, "--no-exact", "--json", *flags],
                "verify-json",
                hypergraph=_graph(h),
            )
        )
    return ops


SETUP = {
    "oracle-deep": oracle_deep,
    "critical-core": critical_core,
    "survey": survey,
    "survey-jobs2": survey_jobs2,
    "large-structure": large_structure,
}
