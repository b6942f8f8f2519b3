"""Numeric helpers used across the analytical engines.

The anonymity-degree computations in :mod:`repro.core` reduce to manipulating
small probability vectors, falling factorials, and Shannon entropies.  The
helpers here centralise the numerically delicate parts (``0 * log 0``,
normalisation of near-zero vectors, exact integer falling factorials) so the
higher-level code can stay readable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = [
    "falling_factorial",
    "log2_safe",
    "xlog2x",
    "entropy_bits",
    "normalize",
    "binomial",
    "compositions_count",
    "kahan_sum",
]


def falling_factorial(n: int, k: int) -> int:
    """Return the falling factorial ``n * (n-1) * ... * (n-k+1)``.

    The convention used throughout the library:

    * ``falling_factorial(n, 0) == 1`` for every ``n`` (the empty product),
    * the result is ``0`` whenever ``k > n`` or any factor would be
      non-positive, which encodes "there is no way to choose an ordered
      sequence of ``k`` distinct items from ``n``",
    * negative ``k`` is a caller bug and raises ``ValueError``.

    The computation is exact (Python integers), which matters because the
    Bayesian likelihood ratios in :mod:`repro.core.anonymity` are ratios of
    falling factorials of potentially large arguments.
    """
    if k < 0:
        raise ValueError(f"falling_factorial requires k >= 0, got k={k}")
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.perm(n, k)


def binomial(n: int, k: int) -> int:
    """Return the binomial coefficient ``C(n, k)`` with C(n, k) = 0 for k > n or k < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def compositions_count(total: int, parts: int) -> int:
    """Number of ways to write ``total`` as an ordered sum of ``parts`` non-negative integers.

    This is the "stars and bars" count ``C(total + parts - 1, parts - 1)``.
    When ``parts == 0`` the answer is ``1`` if ``total == 0`` (the empty
    composition) and ``0`` otherwise.  Used by the arrangement counter in
    :mod:`repro.combinatorics.arrangements` to distribute unobserved hops into
    the gaps between observed path fragments.
    """
    if parts < 0 or total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    return math.comb(total + parts - 1, parts - 1)


def log2_safe(x: float) -> float:
    """Return ``log2(x)``, mapping ``x <= 0`` to ``0.0``.

    The convention ``0 * log 0 = 0`` from information theory is implemented by
    :func:`xlog2x`; this helper only exists for call sites that have already
    checked positivity but may see exact zeros due to floating-point
    cancellation.
    """
    if x <= 0.0:
        return 0.0
    return math.log2(x)


def xlog2x(x: float) -> float:
    """Return ``x * log2(x)`` with the information-theoretic convention ``0 log 0 = 0``."""
    if x <= 0.0:
        return 0.0
    return x * math.log2(x)


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated (Kahan) summation of an iterable of floats.

    Event probabilities in the exact enumeration engine can differ by many
    orders of magnitude; compensated summation keeps the total close to the
    mathematically exact value so the "probabilities sum to one" invariants in
    the test suite hold tightly.
    """
    total = 0.0
    compensation = 0.0
    for value in values:
        y = value - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total


def normalize(weights: Sequence[float]) -> list[float]:
    """Normalise a vector of non-negative weights into a probability vector.

    Raises ``ValueError`` when every weight is zero (there is no probability
    vector to speak of) or when any weight is negative.
    """
    total = kahan_sum(weights)
    if total <= 0.0:
        raise ValueError("cannot normalise a weight vector that sums to zero")
    for w in weights:
        if w < 0.0:
            raise ValueError(f"weights must be non-negative, got {w!r}")
    return [w / total for w in weights]


def entropy_bits(probabilities: Sequence[float]) -> float:
    """Shannon entropy (base 2) of a probability vector, in bits.

    The vector is expected to be (approximately) normalised; tiny negative
    values and tiny normalisation drift caused by floating-point arithmetic
    are tolerated.  The convention ``0 log 0 = 0`` is applied term-wise.
    """
    return -kahan_sum(xlog2x(p) for p in probabilities if p > 0.0)
