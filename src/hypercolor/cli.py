"""Command line interface.

Exit codes: 0 success; 1 an internal error, a bug rather than bad input
(a traceback, the message of the critical command's lemma alarm, or of a
failed structural check under verify --inequalities);
2 bad input (file parse, text that is not UTF-8, flags, family
parameters, unsupported instance shapes); 3 when any instance's verdict
is VIOLATED, which is the counterexample alarm and is never masked by
other failures; 4 when verdicts stayed UNRESOLVED (the search budget ran
out, or was 0 nodes under --no-exact) and nothing was VIOLATED.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import report
from .analysis import UNRESOLVED, VIOLATED, inequality_suite, verify_conjecture
from .coloring import brooks_color, greedy_color, is_proper, vizing_edge_color
from .core import Hypergraph, UnsupportedInputError
from .hgr import (
    HgrParseError,
    digest,
    dump,
    integer,
    load,
    parse_hgr_bytes,
    serialize_hgr,
)
from .instances import (
    GenerationError,
    _check_survey_input,
    generate,
    parse_family,
    survey_instance,
)
from .oracle import Budget, chromatic_index, criticality_report


_DEFAULTS = Budget()


def _budget(args: argparse.Namespace) -> Budget:
    """The search budget; --time-limit 0 is no clock, and --no-exact, where
    a command has it, is 0 nodes.  --time-limit is ASCII decimal digits
    with at most one '.', after an optional minus sign: float() alone would
    also read '1_0', '+1', '٣', 'inf' and 'nan'."""
    if args.budget < 0:
        raise GenerationError(f"--budget must be an integer >= 0, got {args.budget!r}")
    text = args.time_limit
    digits = text.strip().removeprefix("-").replace(".", "", 1)
    if not (digits.isascii() and digits.isdigit()) or float(text) < 0:
        raise GenerationError(f"--time-limit must be a number >= 0, got {text!r}")
    nodes = args.budget if getattr(args, "exact", True) else 0
    return Budget(max_nodes=nodes, time_limit=float(text))


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget",
        type=integer,
        default=_DEFAULTS.max_nodes,
        metavar="NODES",
        help=f"search nodes per exact call (default {_DEFAULTS.max_nodes})",
    )
    sub.add_argument(
        "--time-limit",
        default=str(_DEFAULTS.time_limit),
        help=f"seconds per exact call, 0 to disable (default {_DEFAULTS.time_limit:g})",
    )


def _add_exact_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--exact",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the exact oracle (--no-exact: the oracle at zero nodes, DSATUR "
        "over the greedy clique, the counting floor and the maximum degree; "
        "ignores --budget and --time-limit)",
    )


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "input", nargs="?", help="hypergraph file in hgr format, or - for stdin"
    )
    sub.add_argument(
        "--family",
        help="generate the input instead of reading a file (e.g. fano, "
        "affine-plane:3, random-linear:n=10,m=8,k=3,seed=1)",
    )


def _load_input(args: argparse.Namespace) -> Hypergraph:
    if args.family is not None and args.input is not None:
        raise GenerationError("give either an input file or --family, not both")
    if args.family is not None:
        return generate(parse_family(args.family))
    if args.input is None:
        raise GenerationError("no input: give a file (or -) or --family")
    if args.input == "-":
        # Bytes, decoded strictly whatever the locale's error handler.
        return parse_hgr_bytes(sys.stdin.buffer.read())
    return load(args.input)


def cmd_stats(args: argparse.Namespace) -> int:
    h = _load_input(args)
    sys.stdout.write(report.stats_json(h) if args.json else report.render_stats(h))
    return 0


def cmd_color(args: argparse.Namespace) -> int:
    h = _load_input(args)
    bracket_note = None
    if args.method == "greedy":
        coloring = greedy_color(h, order=args.order, seed=args.seed)
    elif args.method == "brooks":
        coloring = brooks_color(h)
    elif args.method == "vizing":
        coloring = vizing_edge_color(h)
    else:
        res = chromatic_index(h, _budget(args))
        coloring = res.witness
        if res.exact is None:
            bracket_note = (
                f"budget exhausted: q is in [{res.lower}, {res.upper}]; "
                "the coloring shown achieves the upper end"
            )
    if not is_proper(h, coloring):
        raise RuntimeError("internal error: emitted coloring is not proper")
    sys.stdout.write(
        report.coloring_json(h, coloring, args.method)
        if args.json
        else report.render_coloring(h, coloring, args.method)
    )
    if bracket_note is not None:
        print(bracket_note, file=sys.stderr)
        return 4
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    h = _load_input(args)
    verdict = verify_conjecture(h, _budget(args))
    checks = inequality_suite(h) if args.inequalities else None
    if args.json:
        sys.stdout.write(report.verdict_json(h, verdict))
    else:
        text = report.render_verdict(h, verdict)
        if checks is not None:
            text += "\n".join(report.render_inequalities(checks)) + "\n"
        sys.stdout.write(text)
    if verdict.status == VIOLATED:
        return 3
    if checks is not None and not checks.all_ok:
        failed = [c.name for c in checks.checks if c.applicable and not c.ok]
        print(
            f"internal error: structural check failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    if verdict.status == UNRESOLVED:
        return 4
    return 0


def cmd_critical(args: argparse.Namespace) -> int:
    h = _load_input(args)
    rep = criticality_report(h, _budget(args), extract=not args.no_extract)
    render = report.criticality_json if args.json else report.render_criticality
    sys.stdout.write(render(h, rep))
    if not rep.lemma_ok:
        print(
            "internal error: a critical hyperedge has degree below q - 1",
            file=sys.stderr,
        )
        return 1
    if not rep.complete or (rep.core is not None and not rep.core.complete):
        return 4
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    h = generate(parse_family(args.family))
    if args.out:
        dump(h, args.out)
    else:
        sys.stdout.write(serialize_hgr(h))
    return 0


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    lo_txt, sep, hi_txt = text.partition("..")
    try:
        lo = integer(lo_txt)
        hi = integer(hi_txt) if sep else lo
    except ValueError:
        raise GenerationError(f"{flag} must be LO..HI, got {text!r}")
    return lo, hi


def _survey_worker(task: tuple) -> dict:
    # task[1] is the instance index; the benchmark's tracer names spans by it.
    seed, index, n_range, m_range, ks, budget = task
    spec, h = survey_instance(seed, index, n_range, m_range, ks)
    verdict = verify_conjecture(h, budget)
    row = {
        "index": index,
        "family": spec.label(),
        "input_sha256": digest(h),
        "n": h.n,
        "m": h.m,
        "k": spec.k,
    }
    row.update(report.verdict_dict(verdict))
    return row


def _survey_share(tasks: list) -> tuple:
    """One worker's share: its rows in task order, and the (index,
    exception) of the task that raised, or None.  A share stops at its
    first failure, since no later index of it can be the lowest."""
    rows = []
    for task in tasks:
        try:
            rows.append(_survey_worker(task))
        except Exception as exc:
            return rows, (task[1], exc)
    return rows, None


def _survey_child(tasks: list, conn) -> None:
    # One send, after the last task: a child that dies sends nothing.
    with conn:
        conn.send(_survey_share(tasks))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    has one, since a host's count includes CPUs the process is barred from."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _survey_rows(tasks: list, workers: int) -> list:
    """The rows of tasks, in order, from workers workers: this process runs
    tasks[0::workers] and child w runs tasks[w::workers], sending its rows
    back once.  A failing task raises as it would at one worker: the lowest
    failing index wins, once every share is in.  A child that dies without
    sending is an internal error, never bad input, so it is a RuntimeError,
    not the OSError or EOFError its pipe gives.  Every child is joined
    before this returns or raises; if this process itself raises, the
    children are terminated first."""
    children = []
    if workers > 1:
        # Imported here: no other command and no serial survey needs it.
        import multiprocessing
    try:
        for w in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_survey_child, args=(tasks[w::workers], send)
            )
            # Closing this process's copy of the child's end lets recv see
            # end of file when the child dies.
            with send:
                child.start()
            children.append((child, recv))
        shares = [_survey_share(tasks[0::workers])]
        for child, recv in children:
            try:
                shares.append(recv.recv())
            except (EOFError, OSError):
                child.join()
                raise RuntimeError(
                    f"internal error: a survey worker exited with code "
                    f"{child.exitcode} before sending its rows"
                ) from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            recv.close()
            child.join()
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows: list = [None] * len(tasks)
    for w, (share, _) in enumerate(shares):
        rows[w::workers] = share
    return rows


def cmd_survey(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise GenerationError("--count must be non-negative")
    if args.jobs < 1:
        raise GenerationError("--jobs must be at least 1")
    n_range = _parse_range(args.n_range, "--n-range")
    m_range = _parse_range(args.m_range, "--m-range")
    try:
        ks = tuple(integer(part) for part in args.k.split(","))
    except ValueError:
        raise GenerationError(f"--k must be a comma list of sizes, got {args.k!r}")
    # Checked here as well as per instance, so --count 0 validates too.
    _check_survey_input(n_range, m_range, ks)
    budget = _budget(args)
    tasks = [(args.seed, i, n_range, m_range, ks, budget) for i in range(args.count)]
    # Each worker gets a fixed share of the indices, so start no more than
    # there are instances and CPUs to run them.
    workers = max(1, min(args.jobs, len(tasks), _usable_cpus()))
    rows = _survey_rows(tasks, workers)
    render = report.survey_json if args.json else report.render_survey
    sys.stdout.write(render(args.seed, rows))
    statuses = {row["status"] for row in rows}
    if VIOLATED in statuses:
        return 3
    if UNRESOLVED in statuses:
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercolor",
        description="Hypergraph edge coloring and degree-bound verification.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=report._TOOL,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_stats = subs.add_parser("stats", help="print structural invariants")
    _add_input_flags(p_stats)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    p_color = subs.add_parser("color", help="color the hyperedges")
    _add_input_flags(p_color)
    p_color.add_argument(
        "--method",
        choices=["greedy", "brooks", "vizing", "exact"],
        default="greedy",
    )
    p_color.add_argument(
        "--order",
        choices=["index", "desc-degree", "random"],
        default="desc-degree",
        help="hyperedge order for --method greedy",
    )
    p_color.add_argument(
        "--seed", type=integer, default=0, help="seed for --order random"
    )
    p_color.add_argument("--json", action="store_true")
    _add_budget_flags(p_color)
    p_color.set_defaults(func=cmd_color)

    p_verify = subs.add_parser(
        "verify", help="check q against the two-section degree bound"
    )
    _add_input_flags(p_verify)
    _add_exact_flag(p_verify)
    p_verify.add_argument(
        "--inequalities",
        action="store_true",
        help="append the structural inequality checks",
    )
    p_verify.add_argument("--json", action="store_true")
    _add_budget_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_crit = subs.add_parser(
        "critical", help="per-hyperedge criticality and a critical core"
    )
    _add_input_flags(p_crit)
    p_crit.add_argument(
        "--no-extract",
        action="store_true",
        help="only tabulate criticality, skip core extraction",
    )
    p_crit.add_argument("--json", action="store_true")
    _add_budget_flags(p_crit)
    p_crit.set_defaults(func=cmd_critical)

    p_gen = subs.add_parser("gen", help="generate an instance file")
    p_gen.add_argument(
        "--family",
        required=True,
        help="family description, e.g. fano, affine-plane:3 or "
        "random-linear:n=8,m=5,k=3,seed=7 (the seed is part of the family)",
    )
    p_gen.add_argument("-o", "--out", help="write to a file instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_survey = subs.add_parser(
        "survey", help="verify a batch of seeded random linear instances"
    )
    p_survey.add_argument("--count", type=integer, required=True)
    p_survey.add_argument("--seed", type=integer, default=0, help="master seed")
    p_survey.add_argument("--n-range", default="6..12", help="vertex range LO..HI or N")
    p_survey.add_argument("--m-range", default="4..16", help="edge range LO..HI or M")
    p_survey.add_argument("--k", default="2,3,4", help="edge sizes, comma list")
    p_survey.add_argument("--jobs", type=integer, default=1)
    _add_exact_flag(p_survey)
    p_survey.add_argument("--json", action="store_true")
    _add_budget_flags(p_survey)
    p_survey.set_defaults(func=cmd_survey)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first use and kept for the process.

    Parsing leaves a parser as it was, and a build costs more than many a
    command it would parse, so one process making many main calls builds
    it once.
    """
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (HgrParseError, GenerationError, UnsupportedInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
