"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import generate_osm_like, generate_uniform
from repro.index.count_index import CountIndex
from repro.index.quadtree import Quadtree

# ``HYPOTHESIS_PROFILE=deep`` runs ten times the examples of the profile
# Hypothesis would otherwise use.  Suites that size their budget from
# the active profile (the differential harness's ``SETTINGS``) scale
# with it; suites that pin a budget do not.
settings.register_profile(
    "deep", parent=settings.default, max_examples=10 * settings.default.max_examples
)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def osm_points() -> np.ndarray:
    """A small deterministic OSM-like dataset shared across tests."""
    return generate_osm_like(5_000, seed=42)


@pytest.fixture(scope="session")
def uniform_points() -> np.ndarray:
    """A small deterministic uniform dataset shared across tests."""
    return generate_uniform(3_000, seed=42)


@pytest.fixture(scope="session")
def osm_quadtree(osm_points) -> Quadtree:
    """A quadtree over the shared OSM-like dataset."""
    return Quadtree(osm_points, capacity=64)


@pytest.fixture(scope="session")
def osm_count_index(osm_quadtree) -> CountIndex:
    """The Count-Index of the shared quadtree."""
    return CountIndex.from_index(osm_quadtree)


@pytest.fixture(scope="session")
def inner_quadtree() -> Quadtree:
    """A second relation (different seed) for join tests."""
    return Quadtree(generate_osm_like(5_000, seed=43), capacity=64)


@pytest.fixture(scope="session")
def inner_count_index(inner_quadtree) -> CountIndex:
    """The Count-Index of the second relation."""
    return CountIndex.from_index(inner_quadtree)
