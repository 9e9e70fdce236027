"""Mutation checks: each listed mutant must fail the tests it names.

A mutant is one edit: a file under src/ or tests/, an exact fragment of it
that occurs there once, the text that replaces it, and the ids of the tests
that must fail once it does.  For each mutant the runner copies src/ and
tests/ to a temporary directory, makes the edit there and runs only those
tests with pytest.  It exits 1 when a mutant survives (one of its tests
passes, or they run past TIMEOUT_S), when a fragment does not occur
exactly once, or when a listed test fails with no edit made, and 0 when
every mutant is killed.  The working tree is never edited.

    python tests/mutants.py

It needs only the standard library and pytest.  pytest does not collect
this file, since its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Seconds one pytest run may take.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


ORACLE = "src/hypercolor/oracle.py"
T = "tests/test_oracle.py::"

MUTANTS = (
    # The search loop (oracle._search).
    Mutant(
        "node guard >= made >",
        ORACLE,
        "if nodes >= max_nodes:",
        "if nodes > max_nodes:",
        (T + "test_the_components_share_one_node_count",
         T + "test_hard_set_brackets_and_node_counts"),
    ),
    Mutant(
        "advance step c > used made >=",
        ORACLE,
        "elif c > used:",
        "elif c >= used:",
        (T + "test_search_matches_the_recursive_reference",
         T + "test_hard_set_brackets_and_node_counts"),
    ),
    Mutant(
        "advance step used + 1 made + 2",
        ORACLE,
        "used = c = used + 1",
        "used = c = used + 2",
        (T + "test_every_small_multiset_on_three_vertices",
         T + "test_hard_set_brackets_and_node_counts"),
    ),
    Mutant(
        "take-or-drop c <= ceiling made <",
        ORACLE,
        "if c <= ceiling or droppable & bit and drop < 0:",
        "if c < ceiling or droppable & bit and drop < 0:",
        (T + "test_every_small_multiset_on_three_vertices",
         T + "test_drop_search_nodes_are_pinned"),
    ),
    Mutant(
        "take-or-drop without and drop < 0",
        ORACLE,
        "if c <= ceiling or droppable & bit and drop < 0:",
        "if c <= ceiling or droppable & bit:",
        (T + "test_drop_search_matches_the_recursive_reference",
         T + "test_a_cut_drop_search_leaves_its_open_rows_to_row_searches"),
    ),
    Mutant(
        "borrow x &= plane made x &= ~plane",
        ORACLE,
        "planes[j] = plane = planes[j] ^ x\n                    x &= plane",
        "planes[j] = plane = planes[j] ^ x\n                    x &= ~plane",
        (T + "test_hard_set_brackets_and_node_counts",
         T + "test_drop_search_nodes_are_pinned"),
    ),
    Mutant(
        "drop leaf without entry[k] = ceiling",
        ORACLE,
        "\n                    entry[k] = ceiling",
        "",
        (T + "test_drop_search_nodes_are_pinned",
         T + "test_drop_search_matches_the_recursive_reference"),
    ),
    # The gate before the loop, the counting floor and TabuCol's keep rule.
    Mutant(
        "gate lb <= stop < best_count made <=",
        ORACLE,
        "if not lb <= stop < best_count:",
        "if not lb <= stop <= best_count:",
        (T + "test_search_matches_the_recursive_reference",
         T + "test_large_line_graphs_match_the_references"),
    ),
    Mutant(
        "counting floor one above",
        ORACLE,
        "return -(-len(members) // per_class)",
        "return -(-len(members) // per_class) + 1",
        (T + "test_the_counting_floor_never_exceeds_the_chromatic_index",
         T + "test_hard_set_brackets_and_node_counts"),
    ),
    Mutant(
        "TabuCol keeps an equal coloring",
        ORACLE,
        "if best is None or count >= upper:",
        "if best is None or count > upper:",
        (T + "test_the_tabucol_pass_runs_only_after_a_cut",),
    ),
)


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """pytest on tests in a copy of src/ and tests/, with mutant's edit
    made when one is given.  ValueError when its fragment does not occur
    exactly once; subprocess.TimeoutExpired past TIMEOUT_S."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, tree / part,
                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
            )
        if mutant is not None:
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.fragment)
            if count != 1:
                raise ValueError(f"its fragment occurs {count} times in {mutant.path}")
            target.write_text(
                text.replace(mutant.fragment, mutant.replacement), encoding="utf-8"
            )
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--rootdir", str(tree), *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )


def failed(done: subprocess.CompletedProcess) -> set[str]:
    """The ids pytest's summary names on its FAILED and ERROR lines."""
    ids = set()
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            ids.add(rest.split(" - ", 1)[0])
    return ids


def main() -> int:
    # A kill means something only if the tests pass on the code as it is.
    tests = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
    done = run(tests)
    if done.returncode:
        print(f"the tests do not pass with no mutant:\n{done.stdout}{done.stderr}")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        try:
            passed = set(mutant.tests) - failed(run(mutant.tests, mutant))
            why = f"these tests pass: {sorted(passed)}" if passed else None
        except ValueError as exc:
            why = str(exc)
        except subprocess.TimeoutExpired:
            why = f"its tests ran past {TIMEOUT_S} s"
        survivors += why is not None
        print(f"killed: {mutant.name}" if why is None else f"SURVIVED: {mutant.name} ({why})",
              flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
