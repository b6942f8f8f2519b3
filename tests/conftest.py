"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.engine import clear_engine_cache
from repro.core.model import SystemModel


@pytest.fixture(autouse=True)
def _fresh_engine_cache() -> None:
    """Start every test from an empty engine cache.

    Engines are shared per process, so without this a test that counts
    construction or pricing would depend on which tests ran before it.
    """
    clear_engine_cache()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_model() -> SystemModel:
    """A system small enough for exhaustive enumeration."""
    return SystemModel(n_nodes=7, n_compromised=1)


@pytest.fixture
def paper_model() -> SystemModel:
    """The system size used throughout the paper's numerical section."""
    return SystemModel(n_nodes=100, n_compromised=1)
