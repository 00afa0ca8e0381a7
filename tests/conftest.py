"""Shared graph fixtures.

The three session graphs are frozen by seed and reused across test
modules; regenerating them is cheap but keeping one instance avoids
recomputing cached adjacency structures everywhere.

HYPOTHESIS_PROFILE=ci selects the profile CI runs with: a falsifying
example it finds is printed with the blob that reproduces it
(@reproduce_failure).  HYPOTHESIS_PROFILE=mutants is the one
tests/mutants.py runs with: the same examples every run, none stored,
and no shrinking, since a killed mutant needs no minimal example.
"""
import os

import numpy as np
import pytest
from hypothesis import Phase, settings

from gossiplab.graph import (
    connectivity_radius, directify, random_geometric_graph,
)

settings.register_profile("ci", print_blob=True)
settings.register_profile("mutants", derandomize=True, database=None,
                          phases=[Phase.explicit, Phase.generate])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def graph16():
    """16-node connected geometric graph, bidirectional links."""
    rng = np.random.default_rng(7)
    return random_geometric_graph(16, connectivity_radius(16), rng)


@pytest.fixture(scope="session")
def digraph16(graph16):
    """Asymmetric variant of graph16, still strongly connected."""
    return directify(graph16, 0.3, np.random.default_rng(11))


@pytest.fixture(scope="session")
def graph50():
    """50-node connected geometric graph for the larger campaigns."""
    rng = np.random.default_rng(21)
    return random_geometric_graph(50, connectivity_radius(50), rng)


@pytest.fixture
def two_cpus(monkeypatch):
    """os.cpu_count() reads 2, so workers=2 starts a pool of two workers
    on any machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
