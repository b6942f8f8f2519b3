"""Optimal path-length selection (paper, Section 5.4 and Figure 6).

The paper casts path selection as an optimization problem: among all
path-length distributions ``Pr[L = l]`` supported on an interval, find the one
that maximises the anonymity degree ``H*(S)``, optionally subject to a
constraint on the expected path length (longer paths cost latency and
bandwidth, so designers typically fix the expected overhead first and then ask
for the most anonymity available at that cost).

Three optimizers are provided, in increasing generality:

* :func:`best_fixed_length` — scan the fixed-length strategies ``F(l)``;
* :func:`best_uniform_for_mean` — within the uniform family ``U(L-w, L+w)`` of
  a given expected length ``L``, pick the width ``w`` maximising ``H*``
  (this is the restricted optimization the paper plots in Figure 6);
* :func:`optimize_distribution` — search the full probability simplex over an
  integer support with ``scipy.optimize`` (SLSQP), optionally constraining the
  mean.  The result is returned as a
  :class:`repro.distributions.CategoricalLength`.

SLSQP runs on exact gradients.  :meth:`AnonymityAnalyzer.degree_gradient
<repro.core.anonymity.AnonymityAnalyzer.degree_gradient>` builds each
observation class's per-length rows once per support and returns ``H*`` with
its gradient in one vectorised pass, so each SLSQP evaluation costs a few
small matrix products instead of one closed-form analysis per support point.
The gradient is taken through the map from SLSQP's vector ``v`` to the pmf
``v / sum(v)``, and both equality constraints pass their constant Jacobians.
A candidate of zero posterior weight has an unbounded entropy slope; its
share is floored at ``2**-53`` (the zero-weight rule, see
:data:`repro.core.anonymity._SHARE_FLOOR`).  ``H*`` is a conditional entropy
whose joint law is linear in the pmf, so it is concave in the pmf for every
adversary and each problem has one optimum value.  The reported degree is
the closed form (:meth:`AnonymityAnalyzer.analyze`) of the returned
distribution.

``scipy.optimize`` is imported on the first call of :func:`optimize_distribution`,
its only user, so importing this module (and the ``repro-anon`` CLI) does not
pay for it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.distributions import (
    CategoricalLength,
    FixedLength,
    PathLengthDistribution,
    UniformLength,
)
from repro.exceptions import ConfigurationError, OptimizationError
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "FixedLengthScan",
    "UniformWidthScan",
    "OptimizationOutcome",
    "best_fixed_length",
    "best_uniform_for_mean",
    "optimize_distribution",
]

#: How far from ``mean`` a start's expected length may be for
#: :func:`optimize_distribution` to return that start in place of SLSQP's answer.
_MEAN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FixedLengthScan:
    """Result of scanning fixed-length strategies."""

    best_length: int
    best_degree: float
    degrees: dict[int, float]


@dataclass(frozen=True)
class UniformWidthScan:
    """Result of scanning widths of mean-constrained uniform strategies."""

    mean: int
    best_width: int
    best_degree: float
    degrees: dict[int, float]

    @property
    def best_distribution(self) -> UniformLength:
        """The optimal uniform distribution found by the scan."""
        return UniformLength(self.mean - self.best_width, self.mean + self.best_width)


@dataclass(frozen=True)
class OptimizationOutcome:
    """Result of the full-simplex optimization of Section 5.4."""

    distribution: CategoricalLength
    degree_bits: float
    iterations: int
    converged: bool
    message: str


def best_fixed_length(
    model: SystemModel,
    min_length: int = 1,
    max_length: int | None = None,
) -> FixedLengthScan:
    """Scan ``F(l)`` for ``l`` in ``[min_length, max_length]`` and return the best.

    ``max_length`` defaults to the longest feasible simple path, ``N - 1``.
    """
    min_length, max_length = _length_range(model, min_length, max_length)
    analyzer = AnonymityAnalyzer(model)
    degrees = {
        length: analyzer.anonymity_degree(FixedLength(length))
        for length in range(min_length, max_length + 1)
    }
    best_length = max(degrees, key=degrees.__getitem__)
    return FixedLengthScan(
        best_length=best_length, best_degree=degrees[best_length], degrees=degrees
    )


def best_uniform_for_mean(model: SystemModel, mean: int) -> UniformWidthScan:
    """Find the half-width maximising ``H*`` among ``U(mean - w, mean + w)``.

    This is the optimization the paper performs for Figure 6: for a given
    expected path length, choose the variance of the uniform strategy.  The
    width is constrained so the bounds stay within ``[0, N - 1]``.
    """
    # U(mean - w, mean + w) has integer bounds.
    mean = check_non_negative_int(mean, "mean")
    analyzer = AnonymityAnalyzer(model)
    if mean > model.max_simple_path_length:
        raise ConfigurationError(
            f"mean ({mean}) must lie within [0, {model.max_simple_path_length}]"
        )
    max_width = min(mean, model.max_simple_path_length - mean)
    degrees: dict[int, float] = {}
    for width in range(max_width + 1):
        distribution = UniformLength(mean - width, mean + width)
        degrees[width] = analyzer.anonymity_degree(distribution)
    best_width = max(degrees, key=degrees.__getitem__)
    return UniformWidthScan(
        mean=mean,
        best_width=best_width,
        best_degree=degrees[best_width],
        degrees=degrees,
    )


def optimize_distribution(
    model: SystemModel,
    min_length: int = 0,
    max_length: int | None = None,
    mean: float | None = None,
    initial: PathLengthDistribution | None = None,
    max_iterations: int = 300,
) -> OptimizationOutcome:
    """Maximise ``H*(S)`` over all distributions on ``[min_length, max_length]``.

    Implements the optimization problem (15)–(17) of the paper: the decision
    variable is the probability vector ``Pr[L = l]`` itself, constrained to be
    non-negative and to sum to one, with an optional constraint pinning the
    expected path length (pass ``mean``).  Returns the best distribution found
    and the anonymity degree it achieves.

    SLSQP takes the exact gradient of :meth:`AnonymityAnalyzer.degree_gradient
    <repro.core.anonymity.AnonymityAnalyzer.degree_gradient>`, with each
    candidate's posterior share floored at ``2**-53`` so that zero weights
    (such as ``Pr[L = 0] = 0`` at the mean-matching start) keep a finite
    slope.  ``degree_bits`` is the closed form of the returned distribution,
    and the start is returned instead when it scores higher and meets
    ``mean`` to within 1e-9 (an ``initial`` off the mean only seeds SLSQP).
    A one-length support returns its point mass.  The bounds
    must be integers, ``mean`` a number within them and ``max_iterations`` a
    positive integer; anything else raises :class:`ConfigurationError`
    before any evaluation.
    """
    min_length, max_length = _length_range(model, min_length, max_length)
    max_iterations = check_positive_int(max_iterations, "max_iterations")
    if mean is not None:
        if isinstance(mean, bool) or not isinstance(mean, numbers.Real):
            raise ConfigurationError(
                f"the target mean ({mean!r}) must be a real number, not {type(mean).__name__}"
            )
        if not min_length <= mean <= max_length:
            raise ConfigurationError(
                f"the target mean ({mean}) must lie within [{min_length}, {max_length}]"
            )
    analyzer = AnonymityAnalyzer(model)
    lengths = np.arange(min_length, max_length + 1)
    dimension = len(lengths)
    evaluate = analyzer.degree_gradient(lengths)

    def degree_of_vector(vector: np.ndarray) -> float:
        vector = np.clip(vector, 0.0, None)
        total = vector.sum()
        if total <= 0.0:
            return 0.0
        pmf = {
            int(length): float(p / total)
            for length, p in zip(lengths, vector)
            if p / total > 0.0
        }
        distribution = CategoricalLength(pmf, name="candidate")
        return analyzer.anonymity_degree(distribution)

    def objective(vector: np.ndarray) -> tuple[float, np.ndarray]:
        # -H* at pmf = clip(v) / sum(clip(v)).  SLSQP evaluates only within
        # the bounds, where the clip is the identity, so the chain rule
        # through the normalisation gives dH/dv = (dH/dpmf - <dH/dpmf, pmf>) / sum(v).
        vector = np.clip(vector, 0.0, None)
        total = vector.sum()
        if total <= 0.0:
            return 0.0, np.zeros(dimension)
        pmf = vector / total
        degree, gradient = evaluate(pmf)
        return -degree, (gradient @ pmf - gradient) / total

    # Starting point: the caller's initial distribution, or uniform over the
    # support (respecting the mean constraint via a simple two-point warm start
    # when one is requested).
    if initial is not None:
        start = np.array([initial.pmf(int(length)) for length in lengths], dtype=float)
        if start.sum() <= 0.0:
            raise ConfigurationError(
                "the initial distribution has no mass on the optimization support"
            )
        start = start / start.sum()
    elif mean is None:
        start = np.full(dimension, 1.0 / dimension)
    else:
        start = _mean_matching_start(lengths, mean)

    # Both constraints are linear, so their Jacobians are constant rows.
    ones = np.ones(dimension)
    weights = lengths.astype(float)
    constraints = [
        {
            "type": "eq",
            "fun": lambda vector: float(np.sum(vector) - 1.0),
            "jac": lambda vector: ones,
        },
    ]
    # On a one-length support the simplex constraint already fixes the mean,
    # and SLSQP refuses more equality constraints than variables.
    if mean is not None and dimension > 1:
        constraints.append(
            {
                "type": "eq",
                "fun": lambda vector: float(np.dot(vector, lengths) - mean),
                "jac": lambda vector: weights,
            }
        )
    bounds = [(0.0, 1.0)] * dimension

    from scipy import optimize as scipy_optimize

    result = scipy_optimize.minimize(
        objective,
        start,
        jac=True,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )

    best_vector = np.clip(result.x, 0.0, None)
    if best_vector.sum() <= 0.0:
        raise OptimizationError("optimizer produced an all-zero probability vector")
    best_degree = degree_of_vector(best_vector)

    # SLSQP occasionally terminates at a point worse than its starting point on
    # flat regions of the objective; keep whichever is better, but only a
    # start that meets the mean (a caller's ``initial`` need not).
    start_feasible = mean is None or abs(float(start @ weights) - mean) <= _MEAN_TOLERANCE
    if start_feasible:
        start_degree = degree_of_vector(start)
        if start_degree > best_degree:
            best_vector, best_degree = start, start_degree

    distribution = CategoricalLength.from_vector(
        best_vector, offset=int(lengths[0]), name="optimized"
    )
    return OptimizationOutcome(
        distribution=distribution,
        degree_bits=best_degree,
        iterations=int(result.get("nit", 0)) if hasattr(result, "get") else result.nit,
        converged=bool(result.success),
        message=str(result.message),
    )


def _length_range(
    model: SystemModel, min_length: int, max_length: int | None
) -> tuple[int, int]:
    """Validate a ``[min_length, max_length]`` support; returns it as plain ints.

    ``max_length`` defaults to the longest feasible simple path, ``N - 1``.
    """
    if max_length is None:
        max_length = model.max_simple_path_length
    min_length = check_non_negative_int(min_length, "min_length")
    max_length = check_non_negative_int(max_length, "max_length")
    if max_length > model.max_simple_path_length:
        raise ConfigurationError(
            f"max_length ({max_length}) exceeds the longest simple path "
            f"({model.max_simple_path_length})"
        )
    if min_length > max_length:
        raise ConfigurationError(
            f"min_length ({min_length}) must not exceed max_length ({max_length})"
        )
    return min_length, max_length


def _mean_matching_start(lengths: np.ndarray, mean: float) -> np.ndarray:
    """A feasible starting vector with the requested expected value.

    Uses a two-point distribution on the integers bracketing the mean, which
    always satisfies both simplex constraints exactly.
    """
    lower = int(np.floor(mean))
    upper = int(np.ceil(mean))
    start = np.zeros(len(lengths))
    offset = int(lengths[0])
    if lower == upper:
        start[lower - offset] = 1.0
        return start
    weight_upper = mean - lower
    start[lower - offset] = 1.0 - weight_upper
    start[upper - offset] = weight_upper
    return start
