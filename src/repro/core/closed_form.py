"""Closed-form anonymity degrees for the paper's special cases (Section 5.3).

The paper states three theorems giving closed forms for the anonymity degree
of a system with exactly one compromised node:

* **Theorem 1** — fixed-length simple paths ``F(l)``;
* **Theorem 2** — a two-point path-length distribution;
* **Theorem 3** — a uniform path-length distribution ``U(a, b)``, with the
  observation that (for sufficiently large lower bounds) the degree depends on
  the distribution essentially only through its expectation.

The printed formulas in the conference paper are typographically corrupted and
the technical report containing the derivations is not available, so the
functions below implement our own re-derivation under the paper's stated
threat model (full-Bayes passive adversary, compromised receiver, simple
paths, uniform node selection).  They are written as self-contained arithmetic
— deliberately *not* calling :class:`repro.core.anonymity.AnonymityAnalyzer` —
so the test suite can cross-validate two independent implementations of the
same model (and both against exhaustive enumeration).

All functions return the anonymity degree in bits.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError
from repro.utils.mathx import entropy_bits, falling_factorial

__all__ = [
    "fixed_length_degree",
    "two_point_degree",
    "uniform_degree",
    "interior_event_entropy",
]


def _check_system(n_nodes: int, max_length: int) -> None:
    if n_nodes < 2:
        raise ConfigurationError(f"n_nodes must be >= 2, got {n_nodes}")
    if max_length > n_nodes - 1:
        raise ConfigurationError(
            f"a simple path in a system of {n_nodes} nodes supports at most "
            f"{n_nodes - 1} intermediate nodes, got length {max_length}"
        )
    if max_length < 0:
        raise ConfigurationError(f"path lengths must be >= 0, got {max_length}")


def interior_event_entropy(n_nodes: int, length: int) -> float:
    """Posterior entropy of the ``INTERIOR`` observation class for ``F(length)``.

    For a fixed path length ``l >= 4`` the adversary that sees its compromised
    node somewhere in positions ``1 .. l-2`` cannot tell whether the observed
    predecessor is the sender (position 1) or just another intermediate node.
    The resulting posterior puts mass ``1 / (l - 2)`` on the observed
    predecessor and spreads the rest uniformly over the ``N - 4`` remaining
    candidates.  For ``l == 3`` the interior position is unique, so the sender
    is identified and the entropy is zero.
    """
    n, l = n_nodes, length
    if l < 3:
        raise ConfigurationError("the interior event requires path length >= 3")
    if l == 3:
        return 0.0
    p_pred = 1.0 / (l - 2)
    p_other = (l - 3) / ((l - 2) * (n - 4))
    probabilities = [p_pred] + [p_other] * (n - 4)
    return entropy_bits(probabilities)


def fixed_length_degree(n_nodes: int, length: int) -> float:
    """Theorem 1: anonymity degree of the fixed-length strategy ``F(length)``.

    Re-derived closed form (one compromised node, full-Bayes adversary,
    compromised receiver, simple paths)::

        l = 0        ->  0
        l = 1, 2     ->  ((N-2)/N) log2(N-2)
        l = 3        ->  [ log2(N-3) + (N-3) log2(N-2) ] / N
        l >= 4       ->  [ (l-2) H_int(l) + log2(N-3) + (N-l) log2(N-2) ] / N

    where ``H_int`` is :func:`interior_event_entropy`.
    """
    n, l = n_nodes, length
    _check_system(n, l)
    if l == 0:
        return 0.0
    if l in (1, 2):
        return (n - 2) / n * math.log2(n - 2)
    if l == 3:
        return (math.log2(n - 3) + (n - 3) * math.log2(n - 2)) / n
    h_interior = interior_event_entropy(n, l)
    return (
        (l - 2) * h_interior + math.log2(n - 3) + (n - l) * math.log2(n - 2)
    ) / n


def _weighted_class_entropy(special: float, other: float, n_others: int) -> float:
    """Entropy of a posterior with one special candidate and symmetric others."""
    weights = []
    if special > 0.0:
        weights.append(special)
    if other > 0.0 and n_others > 0:
        weights.extend([other] * n_others)
    if not weights:
        return 0.0
    total = sum(weights)
    return entropy_bits([w / total for w in weights])


def _general_degree_from_pmf(n_nodes: int, pmf: dict[int, float]) -> float:
    """Anonymity degree for an arbitrary pmf, written as explicit event sums.

    This is the common arithmetic core behind Theorems 2 and 3; it mirrors the
    event-class decomposition but is kept self-contained (straight sums over
    the pmf) so that it provides an implementation independent of
    :class:`repro.core.anonymity.AnonymityAnalyzer`.
    """
    n = n_nodes
    ff = falling_factorial

    def share(numerator: int, length: int) -> float:
        # Divide the exact integers first: past N ~ 171 the falling
        # factorials no longer fit in a float, but their ratio always does.
        return numerator / ff(n - 1, length)

    p_silent = sum(prob * (n - 1 - length) for length, prob in pmf.items()) / n
    p_last = sum(prob for length, prob in pmf.items() if length >= 1) / n
    p_pen = sum(prob for length, prob in pmf.items() if length >= 2) / n
    p_int = sum(prob * max(length - 2, 0) for length, prob in pmf.items()) / n

    silent_entropy = _weighted_class_entropy(
        pmf.get(0, 0.0),
        sum(
            prob * share(ff(n - 3, length - 1), length)
            for length, prob in pmf.items()
            if length >= 1 and ff(n - 1, length) > 0
        ),
        n - 2,
    )
    last_entropy = _weighted_class_entropy(
        pmf.get(1, 0.0) / ff(n - 1, 1),
        sum(
            prob * share(ff(n - 3, length - 2), length)
            for length, prob in pmf.items()
            if length >= 2 and ff(n - 1, length) > 0
        ),
        n - 2,
    )
    pen_entropy = _weighted_class_entropy(
        pmf.get(2, 0.0) / ff(n - 1, 2) if n >= 3 else 0.0,
        sum(
            prob * share(ff(n - 4, length - 3), length)
            for length, prob in pmf.items()
            if length >= 3 and ff(n - 1, length) > 0
        ),
        n - 3,
    )
    interior_entropy = _weighted_class_entropy(
        sum(
            prob * share(ff(n - 4, length - 3), length)
            for length, prob in pmf.items()
            if length >= 3 and ff(n - 1, length) > 0
        ),
        sum(
            prob * (length - 3) * share(ff(n - 5, length - 4), length)
            for length, prob in pmf.items()
            if length >= 4 and ff(n - 1, length) > 0
        ),
        n - 4,
    )

    return (
        p_silent * silent_entropy
        + p_last * last_entropy
        + p_pen * pen_entropy
        + p_int * interior_entropy
    )


def two_point_degree(n_nodes: int, short: int, long: int, p_short: float) -> float:
    """Theorem 2: anonymity degree of a two-point path-length distribution.

    The path length equals ``short`` with probability ``p_short`` and ``long``
    with probability ``1 - p_short``.
    """
    _check_system(n_nodes, long)
    if short >= long:
        raise ConfigurationError("short must be strictly smaller than long")
    if not 0.0 <= p_short <= 1.0:
        raise ConfigurationError(f"p_short must lie in [0, 1], got {p_short}")
    pmf: dict[int, float] = {}
    if p_short > 0.0:
        pmf[short] = p_short
    if p_short < 1.0:
        pmf[long] = 1.0 - p_short
    return _general_degree_from_pmf(n_nodes, pmf)


def uniform_degree(n_nodes: int, low: int, high: int) -> float:
    """Theorem 3: anonymity degree of the uniform strategy ``U(low, high)``.

    The paper remarks that for lower bounds of at least three the anonymity
    degree of a uniform strategy essentially coincides with that of the
    fixed-length strategy at the same expected length; the benchmark
    ``benchmarks/bench_theorems.py`` quantifies how tightly that holds under
    the re-derived model.
    """
    _check_system(n_nodes, high)
    if low > high:
        raise ConfigurationError(f"low ({low}) must not exceed high ({high})")
    count = high - low + 1
    pmf = {length: 1.0 / count for length in range(low, high + 1)}
    return _general_degree_from_pmf(n_nodes, pmf)
