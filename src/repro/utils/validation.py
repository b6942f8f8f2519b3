"""Argument-validation helpers.

The public API is meant to fail fast with clear messages when a caller builds
an inconsistent model (for instance a system with more compromised nodes than
nodes).  These helpers keep the validation one-liners readable at call sites.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive_int",
    "check_non_negative_int",
    "check_probability",
    "check_range",
]


def _check_int(value: object, name: str) -> int:
    """``value`` as a plain ``int``; Python and numpy integers only, never ``bool``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive_int(value: object, name: str) -> int:
    """Ensure ``value`` is an integer >= 1 and return it as a plain ``int``."""
    number = _check_int(value, name)
    if number < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {number}")
    return number


def check_non_negative_int(value: object, name: str) -> int:
    """Ensure ``value`` is an integer >= 0 and return it as a plain ``int``."""
    number = _check_int(value, name)
    if number < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {number}")
    return number


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1] and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_range(low: int, high: int, low_name: str, high_name: str) -> tuple[int, int]:
    """Ensure ``low <= high`` for a pair of integer bounds and return them."""
    low = check_non_negative_int(low, low_name)
    high = check_non_negative_int(high, high_name)
    if low > high:
        raise ConfigurationError(
            f"{low_name} ({low}) must not exceed {high_name} ({high})"
        )
    return low, high
