"""The package's export list."""

from __future__ import annotations

import hypercolor
from hypercolor import transforms


def test_exported_names_resolve_and_removed_ones_are_gone():
    namespace: dict = {}
    exec("from hypercolor import *", namespace)
    assert len(set(hypercolor.__all__)) == len(hypercolor.__all__)
    assert [name for name in hypercolor.__all__ if name not in namespace] == []
    # The two-section multigraph left the package: Delta_2 and linearity
    # come from Hypergraph.stats().
    for name in ("Multigraph", "two_section", "max_degree_two_section"):
        assert name not in namespace
        assert not hasattr(hypercolor, name)
        assert not hasattr(transforms, name)
