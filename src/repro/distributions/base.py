"""Abstract interface for path-length distributions.

The paper's entire analysis is parameterised by the probability distribution
``Pr[L = l]`` of the rerouting path length (the number of intermediate nodes
between the sender and the receiver).  Fixed-length strategies are the special
case of a distribution concentrated on a single value; variable-length
strategies (Crowds, Onion Routing II) correspond to non-degenerate
distributions.

Every concrete distribution exposes:

* :meth:`PathLengthDistribution.pmf` — ``Pr[L = l]`` for an integer ``l``,
* :attr:`PathLengthDistribution.support` — the sorted tuple of lengths with
  non-zero probability,
* :meth:`PathLengthDistribution.mean` / :meth:`variance` — exact moments,
* :meth:`PathLengthDistribution.sample` — draw path lengths for simulation,
* :meth:`PathLengthDistribution.truncated` — restrict to a maximum length
  (needed when simple paths cap the length at ``N - 1``).

Distributions are immutable value objects: they compare equal by their pmf and
can safely be shared between strategies, analysers, and optimizers.
"""

from __future__ import annotations

import abc
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping

import numpy as np

from repro.exceptions import DistributionError
from repro.utils.mathx import kahan_sum
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["PathLengthDistribution"]

#: Probabilities below this threshold are treated as exactly zero when
#: computing the support.  Keeps supports finite for distributions with
#: analytically infinite tails that were truncated numerically.
_SUPPORT_EPSILON = 1e-15


class PathLengthDistribution(abc.ABC):
    """A probability distribution over non-negative integer path lengths."""

    # ------------------------------------------------------------------ #
    # Abstract surface                                                    #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _pmf_map(self) -> Mapping[int, float]:
        """Return the full pmf as a mapping ``length -> probability``.

        Concrete subclasses implement only this method; every derived
        quantity (support, moments, sampling, truncation) is computed from it
        by the base class.  The mapping must contain only non-negative
        probabilities summing to one (within floating-point tolerance).
        """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable description, e.g. ``"F(5)"`` or ``"U(2, 10)"``."""

    # ------------------------------------------------------------------ #
    # Derived behaviour                                                   #
    # ------------------------------------------------------------------ #

    def __init__(self) -> None:
        self._cached_pmf: dict[int, float] | None = None
        self._cached_cdf: tuple[tuple[int, ...], tuple[float, ...]] | None = None

    def _pmf(self) -> dict[int, float]:
        if self._cached_pmf is None:
            raw = dict(self._pmf_map())
            self._validate_pmf(raw)
            self._cached_pmf = {
                length: prob
                for length, prob in sorted(raw.items())
                if prob > _SUPPORT_EPSILON
            }
        return self._cached_pmf

    @staticmethod
    def _validate_pmf(pmf: Mapping[int, float]) -> None:
        if not pmf:
            raise DistributionError("path-length distribution has empty support")
        for length, prob in pmf.items():
            if not isinstance(length, (int, np.integer)) or isinstance(length, bool):
                raise DistributionError(
                    f"path lengths must be integers, got {length!r}"
                )
            if length < 0:
                raise DistributionError(f"path lengths must be >= 0, got {length}")
            if prob < -1e-12:
                raise DistributionError(
                    f"probability of length {length} is negative: {prob}"
                )
        total = kahan_sum(pmf.values())
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(
                f"path-length probabilities must sum to 1, got {total!r}"
            )

    # -- pmf / support ---------------------------------------------------

    def pmf(self, length: int) -> float:
        """Return ``Pr[L = length]`` (zero outside the support)."""
        return self._pmf().get(int(length), 0.0)

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted tuple of path lengths with non-zero probability."""
        return tuple(self._pmf().keys())

    @property
    def min_length(self) -> int:
        """Smallest path length with non-zero probability."""
        return self.support[0]

    @property
    def max_length(self) -> int:
        """Largest path length with non-zero probability."""
        return self.support[-1]

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(length, probability)`` pairs over the support."""
        return iter(self._pmf().items())

    def as_dict(self) -> dict[int, float]:
        """Return a copy of the pmf as a plain dictionary."""
        return dict(self._pmf())

    # -- moments ---------------------------------------------------------

    def mean(self) -> float:
        """Exact expectation ``E[L]``."""
        return kahan_sum(length * prob for length, prob in self.items())

    def variance(self) -> float:
        """Exact variance ``Var[L]``."""
        mu = self.mean()
        return kahan_sum(prob * (length - mu) ** 2 for length, prob in self.items())

    def std(self) -> float:
        """Standard deviation of the path length."""
        return float(np.sqrt(self.variance()))

    def expectation_of(self, func: Callable[[int], float]) -> float:
        """Expectation ``E[func(L)]`` of an arbitrary function of the length."""
        return kahan_sum(prob * func(length) for length, prob in self.items())

    # -- sampling --------------------------------------------------------

    def sample(self, rng: RandomSource = None, size: int | None = None) -> int | np.ndarray:
        """Draw one path length (``size=None``) or an array of ``size`` lengths."""
        generator = ensure_rng(rng)
        lengths = np.array(self.support, dtype=np.int64)
        probs = np.array([self.pmf(length) for length in self.support], dtype=float)
        probs = probs / probs.sum()
        if size is None:
            return int(generator.choice(lengths, p=probs))
        return generator.choice(lengths, p=probs, size=size)

    # -- bulk inverse-CDF sampling ---------------------------------------

    def cdf_table(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The support and its cumulative probabilities, cached.

        The table is the basis of inverse-CDF sampling: ``cumulative[i]`` is
        ``Pr[L <= support[i]]``.  The final entry is forced to exactly ``1.0``
        so that a uniform draw of ``1.0 - eps`` can never fall off the end of
        the table due to floating-point shortfall in the running sum.
        """
        if self._cached_cdf is None:
            lengths = []
            cumulative = []
            total = 0.0
            for length, prob in self.items():
                total += prob
                lengths.append(length)
                # Clamp the running sum so float overshoot at an interior
                # entry can never make the table non-monotonic (bisection
                # requires sorted input).
                cumulative.append(min(total, 1.0))
            cumulative[-1] = 1.0
            self._cached_cdf = (tuple(lengths), tuple(cumulative))
        return self._cached_cdf

    def inverse_cdf(self, u: float) -> int:
        """Quantile function: the smallest length ``l`` with ``Pr[L <= l] >= u``.

        Pure-Python bisection over :meth:`cdf_table`; this is the scalar
        reference implementation of the bulk sampler in :meth:`sample_batch`.
        """
        if not 0.0 <= u <= 1.0:
            raise DistributionError(f"inverse_cdf requires u in [0, 1], got {u!r}")
        lengths, cumulative = self.cdf_table()
        index = bisect_left(cumulative, u)
        if index >= len(lengths):
            index = len(lengths) - 1
        return lengths[index]

    def sample_batch(self, size: int, rng: RandomSource = None) -> array:
        """Draw ``size`` path lengths in one bulk inverse-CDF pass.

        Returns a columnar ``array('q')`` of signed 64-bit lengths — the
        storage format of the vectorized estimators in :mod:`repro.batch` —
        rather than ``size`` boxed Python integers.  One uniform variate is
        consumed per trial, so batch consumers stay reproducible under a fixed
        seed regardless of how the draws are post-processed.
        """
        if size < 0:
            raise DistributionError(f"sample_batch requires size >= 0, got {size}")
        generator = ensure_rng(rng)
        lengths, cumulative = self.cdf_table()
        uniforms = generator.random(size)
        indices = np.searchsorted(np.asarray(cumulative), uniforms, side="left")
        np.minimum(indices, len(lengths) - 1, out=indices)
        mapped = np.asarray(lengths, dtype=np.int64)[indices]
        column = array("q")
        column.frombytes(mapped.tobytes())
        return column

    # -- transformations -------------------------------------------------

    def truncated(self, max_length: int) -> "PathLengthDistribution":
        """Return this distribution conditioned on ``L <= max_length``.

        Simple rerouting paths in a system of ``N`` nodes cannot contain more
        than ``N - 1`` intermediate nodes, so analyses of heavy-tailed
        strategies (e.g. the geometric lengths produced by Crowds-style coin
        flipping) condition the distribution on the feasible range first.
        """
        from repro.distributions.custom import CategoricalLength

        kept = {
            length: prob for length, prob in self.items() if length <= max_length
        }
        if not kept:
            raise DistributionError(
                f"truncating {self.name} to max_length={max_length} empties the support"
            )
        total = kahan_sum(kept.values())
        normalised = {length: prob / total for length, prob in kept.items()}
        return CategoricalLength(normalised, name=f"{self.name}|L<={max_length}")

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathLengthDistribution):
            return NotImplemented
        mine, theirs = self._pmf(), other._pmf()
        if mine.keys() != theirs.keys():
            return False
        return all(abs(mine[k] - theirs[k]) <= 1e-12 for k in mine)

    def __hash__(self) -> int:
        return hash(tuple((k, round(v, 12)) for k, v in self._pmf().items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"
