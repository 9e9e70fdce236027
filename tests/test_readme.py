"""README's library example runs and prints what its comments say."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The python block under README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_example_prints_its_comments(capsys):
    code = _library_block()
    # Each print line ends in a comment holding the output it expects.
    want = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(want) == 5
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
