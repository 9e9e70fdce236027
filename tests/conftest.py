"""Shared test setup.

The package is found through ``[tool.pytest.ini_options] pythonpath`` in
the test process only; the CLI and survey tests that start a child
Python get the same package root on PYTHONPATH here.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import hypercolor


@pytest.fixture(autouse=True, scope="session")
def _children_import_the_tested_package():
    root = str(Path(hypercolor.__file__).resolve().parent.parent)
    paths = [root, *filter(None, [os.environ.get("PYTHONPATH")])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
