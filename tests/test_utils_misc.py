"""Tests for RNG handling, argument validation, and table rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.rng import ensure_rng, spawn_child_rng
from repro.utils.tables import format_series, format_table
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
    check_range,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_spawn_child_is_reproducible(self):
        parent_a = ensure_rng(7)
        parent_b = ensure_rng(7)
        child_a = spawn_child_rng(parent_a)
        child_b = spawn_child_rng(parent_b)
        assert list(child_a.integers(0, 100, size=3)) == list(child_b.integers(0, 100, size=3))


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(3, "x") == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_positive_int_accepts_numpy_integers_as_plain_ints(self):
        value = check_positive_int(np.int64(3), "x")
        assert value == 3 and type(value) is int

    def test_non_negative_int_rejects_a_float(self):
        with pytest.raises(ConfigurationError, match="x must be an integer, got 2.0"):
            check_non_negative_int(2.0, "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative_int(0, "x") == 0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative_int(-1, "x")

    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ConfigurationError):
            check_probability(1.5, "p")

    def test_range_ordering(self):
        assert check_range(1, 3, "a", "b") == (1, 3)
        with pytest.raises(ConfigurationError):
            check_range(4, 3, "a", "b")


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["alpha", 1.23456], ["b", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "alpha" in lines[2]
        assert "1.2346" in lines[2]

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_series_columns(self):
        text = format_series("x", [1, 2], {"f": [0.1, 0.2], "g": [0.3, 0.4]})
        header = text.splitlines()[0]
        assert "x" in header and "f" in header and "g" in header
        assert "0.3000" in text
