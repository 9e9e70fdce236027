"""Acceptance gate: one test per assurance, one printed PASS/FAIL line each.

Every test prints ``ACCEPTANCE <k> PASS - <detail>`` (or FAIL) and keeps
inside its wall-clock ceiling.  The batch reports built for assurances 4
through 7 are cached as canonical strings so the determinism assurance
can rebuild them from scratch and compare byte for byte.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, getcontext

from hypercolor import (
    Budget,
    HOLDS,
    Hypergraph,
    Rng,
    affine_plane,
    bound_set,
    brooks_color,
    brooks_edge_color,
    chromatic_index,
    chromatic_number,
    complete_graph,
    conditions,
    criticality_report,
    cycle,
    derive_seed,
    digest,
    extract_critical,
    fano,
    inequality_suite,
    is_proper,
    is_proper_vertex_coloring,
    projective_plane,
    random_linear,
    steiner_triple,
    survey_instance,
    verify_conjecture,
    vizing_edge_color,
)
from hypercolor.instances import GenerationError

from brute import (
    bridged_cubic,
    brute_chromatic_number,
    graph_edges,
    petersen,
    random_connected_graph,
    random_graph,
    random_hypergraph_raw,
)

BUDGET = Budget(max_nodes=10_000_000, time_limit=None)

MASTER_STRICT = 20240
MASTER_CORES = 20250
MASTER_SURVEY = 20260
MASTER_CHROMATIC = 20270
MASTER_BROOKS = 20271
MASTER_VIZING = 20272
MASTER_SQRT = 20280

_CACHE: dict[str, str] = {}


def _cached(name: str, builder) -> str:
    if name not in _CACHE:
        _CACHE[name] = builder()
    return _CACHE[name]


@contextmanager
def criterion(number: int, limit: float | None):
    info = {"detail": ""}
    t0 = time.monotonic()
    try:
        yield info
        elapsed = time.monotonic() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"exceeded the {limit:.0f}s ceiling ({elapsed:.1f}s)"
            )
    except BaseException as exc:
        print(f"ACCEPTANCE {number} FAIL - {exc}")
        raise
    print(f"ACCEPTANCE {number} PASS - {info['detail']} ({elapsed:.2f}s)")


def test_criterion_1_seven_point_system_attains_the_bound():
    with criterion(1, 1.0) as info:
        h = fano()
        st = h.stats()
        assert (st.n, st.m) == (7, 7)
        assert st.rank == 3 and st.antirank == 3
        assert st.max_degree == 3
        assert st.two_section_max_degree == 6
        v = verify_conjecture(h, BUDGET)
        assert v.q_exact == 7
        assert v.q_exact == st.two_section_max_degree + 1
        assert "THM1" in v.conditions
        assert "THM3" in v.conditions
        assert v.status == HOLDS
        assert v.efl_ok is True and v.q_exact <= st.n
        info["detail"] = "q=7 attains bound 7; THM1 and THM3 apply; q<=n"


def test_criterion_2_affine_plane_counts_and_colorings():
    with criterion(2, 5.0) as info:
        h = affine_plane(3)
        st = h.stats()
        assert "THM2" in conditions(h)
        k = st.uniform_k
        assert k * st.m == (k + 1) * st.n == 36
        assert st.two_section_max_degree == 8
        assert all(h.hyperedge_degree(i) == k * k for i in range(h.m))
        rep = inequality_suite(h)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["uniform-regular-count"].applicable
        assert rep.all_ok
        coloring = brooks_edge_color(h)
        assert is_proper(h, coloring)
        assert coloring.q_used <= 9
        assert chromatic_index(h, BUDGET).exact == 4
        info["detail"] = (
            "3*12=4*9=36, delta2=8, all hyperedge degrees 9, "
            f"constructive coloring uses {coloring.q_used}<=9, exact q=4"
        )


def test_criterion_3_projective_plane_attains_the_bound():
    with criterion(3, 5.0) as info:
        h = projective_plane(3)
        st = h.stats()
        v = verify_conjecture(h, BUDGET)
        assert v.q_exact == 13
        assert st.two_section_max_degree + 1 == 13
        assert v.status == HOLDS
        info["detail"] = "q=13 attains bound 13 on the order-3 projective plane"


def _strict_regime_report() -> str:
    lines = [f"strict-regime scan master={MASTER_STRICT} n=13 m=8 k=3"]
    accepted = 0
    idx = 0
    while accepted < 100:
        assert idx < 1000, "scan failed to collect 100 strict-regime instances"
        seed = derive_seed(MASTER_STRICT, idx)
        idx += 1
        try:
            h = random_linear(13, 8, 3, seed)
        except GenerationError:
            continue
        st = h.stats()
        if not (
            st.loopless
            and st.antirank * st.antirank > st.two_section_max_degree + 1
        ):
            continue
        res = chromatic_index(h, BUDGET)
        bound = bound_set(h).greedy
        assert res.exact is not None, f"scan index {idx - 1}: budget ran out"
        assert res.exact <= bound, (
            f"scan index {idx - 1}: q={res.exact} exceeds greedy bound {bound}"
        )
        accepted += 1
        lines.append(
            f"[{idx - 1}] sha={digest(h)[:12]} "
            f"delta2={st.two_section_max_degree} q={res.exact} bound={bound}"
        )
    lines.append(f"accepted={accepted} scanned={idx}")
    return "\n".join(lines) + "\n"


def test_criterion_4_greedy_bound_dominates_in_the_strict_regime():
    with criterion(4, 60.0) as info:
        report = _cached("strict", _strict_regime_report)
        assert report.splitlines()[-1] == "accepted=100 scanned=150"
        assert bound_set(fano()).greedy == 7
        assert bound_set(affine_plane(3)).greedy == 10
        info["detail"] = (
            "100 strict-regime 3-uniform linear instances all have q within "
            "the first-fit bound; pinned bounds 7 and 10 match"
        )


def _critical_core_report() -> str:
    lines = [f"critical cores master={MASTER_CORES}"]
    for i in range(50):
        spec, h = survey_instance(MASTER_CORES, i, (6, 10), (4, 12), (2, 3))
        base = chromatic_index(h, BUDGET)
        core = extract_critical(h, criticality_report(h, BUDGET), BUDGET)
        assert base.exact is not None and core.complete, (
            f"instance {i}: budget ran out"
        )
        assert core.q == base.exact, f"instance {i}: extraction changed q"
        rep = criticality_report(core.hypergraph, BUDGET)
        assert rep.complete, f"instance {i}: budget ran out"
        for j, entry in enumerate(rep.entries):
            assert entry.critical is True, (
                f"instance {i} position {j}: removable edge left in core"
            )
            assert core.q - 1 <= core.hypergraph.hyperedge_degree(j), (
                f"instance {i} position {j}: degree below q-1"
            )
        lines.append(
            f"[{i}] sha={digest(h)[:12]} q={core.q} m={h.m} "
            f"core-m={core.hypergraph.m} removed={len(core.removed)}"
        )
    lines.append("instances=50 failures=0")
    return "\n".join(lines) + "\n"


def test_criterion_5_core_extraction_terminates_all_critical():
    with criterion(5, 120.0) as info:
        report = _cached("cores", _critical_core_report)
        assert report.splitlines()[-1] == "instances=50 failures=0"
        info["detail"] = (
            "50 cores extracted: q preserved, every remaining hyperedge "
            "critical with degree >= q-1, zero failures"
        )


def _survey_command(jobs: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "hypercolor",
            "survey",
            "--count",
            "200",
            "--seed",
            str(MASTER_SURVEY),
            "--n-range",
            "6..12",
            "--m-range",
            "4..16",
            "--k",
            "2,3,4",
            "--budget",
            "10000000",
            "--time-limit",
            "0",
            "--jobs",
            str(jobs),
        ],
        capture_output=True,
        text=True,
        timeout=540,
    )


def _survey_report() -> str:
    proc = _survey_command(1)
    assert proc.returncode == 0, (
        f"survey exited {proc.returncode}: {proc.stderr.strip()}"
    )
    return proc.stdout


def test_criterion_6_linear_survey_all_hold_and_violations_alarm(tmp_path):
    with criterion(6, 600.0) as info:
        report = _cached("survey", _survey_report)
        assert "holds: 200" in report
        assert "violated: 0" in report
        assert "unresolved: 0" in report
        for i in range(200):
            spec, h = survey_instance(
                MASTER_SURVEY, i, (6, 12), (4, 16), (2, 3, 4)
            )
            v = verify_conjecture(h, BUDGET)
            assert v.status == HOLDS and v.q_exact is not None, (
                f"instance {i}: {v.status}"
            )
            assert is_proper(h, v.witness)
            assert v.witness.q_used == v.q_exact <= v.bounds.two_section

        counterexample = tmp_path / "loops.hgr"
        counterexample.write_text("p hgr 1 2\ne 1\ne 1\n", encoding="utf-8")
        alarm = subprocess.run(
            [sys.executable, "-m", "hypercolor", "verify", str(counterexample)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert alarm.returncode == 3
        assert "status: VIOLATED" in alarm.stdout
        info["detail"] = (
            "200 loopless linear instances verified HOLDS with exit 0; "
            "a bound-violating input exits 3"
        )


def _graph_batch_report() -> str:
    lines = [
        f"graph batches masters={MASTER_CHROMATIC},"
        f"{MASTER_BROOKS},{MASTER_VIZING}"
    ]
    for i in range(300):
        g = random_graph(Rng(derive_seed(MASTER_CHROMATIC, i)), 1, 7)
        res = chromatic_number(g, BUDGET)
        expected = brute_chromatic_number(g.n, graph_edges(g))
        assert res.exact == expected, (
            f"chromatic[{i}]: solver {res.exact} vs brute force {expected}"
        )
        assert is_proper_vertex_coloring(g, res.witness)
        assert res.witness.q_used == res.upper
        lines.append(
            f"chromatic[{i}] n={g.n} m={len(graph_edges(g))} "
            f"chi={res.exact} nodes={res.nodes}"
        )
    for i in range(300):
        g = random_connected_graph(Rng(derive_seed(MASTER_BROOKS, i)), 2, 12)
        c = brooks_color(g)
        assert is_proper_vertex_coloring(g, c), f"brooks[{i}]: improper"
        n, delta = g.n, g.max_degree()
        if all(g.degree(v) == n - 1 for v in range(n)):
            assert c.q_used == n, f"brooks[{i}]: complete graph needs n colors"
        elif n % 2 == 1 and all(g.degree(v) == 2 for v in range(n)):
            assert c.q_used == 3, f"brooks[{i}]: odd cycle needs 3 colors"
        else:
            assert c.q_used <= delta, f"brooks[{i}]: exceeded max degree {delta}"
        lines.append(f"brooks[{i}] n={n} delta={delta} q={c.q_used}")
    for i in range(300):
        g = random_graph(Rng(derive_seed(MASTER_VIZING, i)), 2, 12)
        h = Hypergraph(g.n, graph_edges(g))
        ec = vizing_edge_color(h)
        assert ec.q_used <= g.max_degree() + 1, f"vizing[{i}]: over delta+1"
        assert is_proper(h, ec), f"vizing[{i}]: improper"
        lines.append(f"vizing[{i}] n={g.n} delta={g.max_degree()} q={ec.q_used}")
    lines.append("chromatic=300 brooks=300 vizing=300 failures=0")
    return "\n".join(lines) + "\n"


def test_criterion_7_graph_colorers_meet_their_contracts():
    with criterion(7, 300.0) as info:
        report = _cached("graphs", _graph_batch_report)
        assert report.splitlines()[-1] == (
            "chromatic=300 brooks=300 vizing=300 failures=0"
        )
        info["detail"] = (
            "300 exact values match brute force, 300 degree-bounded vertex "
            "colorings and 300 delta+1 edge colorings all proper"
        )


def _engineered_boundary_instances() -> list[Hypergraph]:
    def from_graph(g) -> Hypergraph:
        return Hypergraph(g.n, graph_edges(g))

    prism = Hypergraph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    cube = Hypergraph(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    k33 = Hypergraph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    out = [affine_plane(p) for p in (2, 3, 5, 7)]
    out += [complete_graph(4), k33, from_graph(petersen()), prism,
            from_graph(bridged_cubic()), cube]
    out += [cycle(n) for n in range(3, 11)]
    out += [fano(), Hypergraph(3, [(0, 1), (1, 2)]),
            projective_plane(2), projective_plane(3),
            steiner_triple(9), steiner_triple(15)]
    return out


def test_criterion_8_integer_conditions_match_high_precision_forms():
    with criterion(8, None) as info:
        getcontext().prec = 60
        instances = _engineered_boundary_instances()
        i = 0
        while len(instances) < 1000:
            instances.append(
                random_hypergraph_raw(
                    Rng(derive_seed(MASTER_SQRT, i)), 2, 10, 10, 1, 4
                )
            )
            i += 1
        eq_antirank = eq_degree = eq_product = 0
        for h in instances:
            st = h.stats()
            d2 = st.two_section_max_degree
            dmax = st.max_degree
            sqrt_d2p1 = Decimal(d2 + 1).sqrt()
            tags = conditions(h)
            integer_forms = ("THM1" in tags, "THM3" in tags, "RK62" in tags)
            sqrt_antirank = (
                st.m >= 1
                and st.loopless
                and Decimal(st.antirank) >= sqrt_d2p1
            )
            sqrt_degree = st.loopless and (
                dmax <= 1 or Decimal(dmax - 1) <= sqrt_d2p1
            )
            if st.m >= 1:
                # The product condition rank*(dmax-1) <= d2 rewritten through
                # delta = sqrt(d2): with u = delta - rank and
                # v = (dmax-1) - delta, the quantity (v-u)*delta - u*v equals
                # rank*(dmax-1) - d2 exactly, an integer, so comparing the
                # 60-digit approximation against 0.5 reproduces its sign.
                delta = Decimal(d2).sqrt()
                u = delta - Decimal(st.rank)
                v = Decimal(dmax - 1) - delta
                sqrt_product = (v - u) * delta - u * v < Decimal("0.5")
            else:
                sqrt_product = False
            sqrt_forms = (sqrt_antirank, sqrt_degree, sqrt_product)
            assert integer_forms == sqrt_forms, (
                f"disagreement on sha={digest(h)[:12]}: "
                f"integer {integer_forms} vs sqrt {sqrt_forms}"
            )
            if st.m >= 1 and st.antirank * st.antirank == d2 + 1:
                eq_antirank += 1
            if dmax >= 2 and (dmax - 1) * (dmax - 1) == d2 + 1:
                eq_degree += 1
            if st.m >= 1 and st.rank * (dmax - 1) == d2:
                eq_product += 1
        assert len(instances) == 1000
        assert eq_antirank >= 8 and eq_degree >= 8 and eq_product >= 8
        info["detail"] = (
            "1000 instances, zero disagreements; equality cases hit: "
            f"antirank {eq_antirank}, degree {eq_degree}, product {eq_product}"
        )


def test_criterion_9_reports_are_reproducible_and_parallel_safe():
    with criterion(9, None) as info:
        builders = (
            ("strict", _strict_regime_report),
            ("cores", _critical_core_report),
            ("survey", _survey_report),
            ("graphs", _graph_batch_report),
        )
        for name, builder in builders:
            first = _cached(name, builder)
            again = builder()
            assert again == first, f"{name} report changed between runs"
        parallel = _survey_command(8)
        assert parallel.returncode == 0
        assert parallel.stdout == _CACHE["survey"], (
            "parallel survey output differs from the serial run"
        )
        info["detail"] = (
            "batch reports byte-identical on rebuild; survey with 8 workers "
            "matches the serial run byte for byte"
        )
