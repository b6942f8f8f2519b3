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
  integer support with a primal-dual interior-point method, optionally
  constraining the mean.  The result is returned as a
  :class:`repro.distributions.CategoricalLength`.

``H*`` is a conditional entropy whose joint law is linear in the pmf, so it
is concave in the pmf for every adversary and each problem has one optimum
value.  The solver is Mehrotra's predictor-corrector method (*SIAM J. Optim.*
2(4), 1992) on ``max H*(p)`` subject to ``sum(p) = 1``, ``lengths @ p =
mean`` and ``p >= 0``, run on the exact second-order model of
:meth:`DegreeGradient.second_order
<repro.core.anonymity.DegreeGradient.second_order>`: each observation class
reaches ``H*`` through three rows over the support, so the value, gradient
and Hessian cost a few small matrix products, and each Newton step is one
dense KKT system of the support's size plus the constraints.  A candidate of
zero posterior weight has an unbounded entropy slope; its share is floored
at ``2**-53`` (the zero-weight rule, see
:data:`repro.core.anonymity._SHARE_FLOOR`).  The reported degree is the
closed form (:meth:`AnonymityAnalyzer.analyze`) of the returned
distribution.  The module needs nothing beyond numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.anonymity import AnonymityAnalyzer, DegreeGradient
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
#: :func:`optimize_distribution` to return that start in place of the solver's.
_MEAN_TOLERANCE = 1e-9
#: A Newton step goes this share of the way to the boundary of ``p, z > 0``.
_STEP_TO_BOUNDARY = 0.995
#: A proximal term added to the Hessian block of the KKT matrix.  Where a
#: face of pmfs is optimal, ``H*`` is flat along it and the barrier term
#: ``z/p`` vanishes there, so without it the matrix turns singular and the
#: steps wander along the face.
_PROXIMAL = 1e-10
#: Convergence: the constraint residual relative to ``1 + max|targets|``,
#: and the duality gap the multipliers certify, in bits.
_PRIMAL_TOLERANCE = 1e-12
_GAP_TOLERANCE = 1e-12


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

    The interior-point solver (:func:`_interior_point`) starts from the
    uniform pmf, the two-point pmf bracketing ``mean``, or ``initial``, and
    takes at most ``max_iterations`` Newton steps; ``iterations`` counts
    them.  ``degree_bits`` is the closed form of the returned distribution,
    and the start is returned instead when it scores higher and meets
    ``mean`` to within 1e-9 (an ``initial`` off the mean only seeds the
    solver).  A feasible set of one point (a one-length support, or ``mean``
    at either end of it) returns that point mass after no iterations.  The
    bounds must be integers, ``mean`` a number within them and
    ``max_iterations`` a positive integer; anything else raises
    :class:`ConfigurationError` before any evaluation.
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
    weights = lengths.astype(float)

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

    if dimension == 1 or mean in (min_length, max_length):
        point = (lengths == (min_length if mean is None else mean)).astype(float)
        return OptimizationOutcome(
            distribution=CategoricalLength.from_vector(point, offset=min_length, name="optimized"),
            degree_bits=degree_of_vector(point),
            iterations=0,
            converged=True,
            message="the feasible set is a single point",
        )

    if mean is None:
        constraints, targets = np.ones((1, dimension)), np.ones(1)
    else:
        constraints = np.stack([np.ones(dimension), weights])
        targets = np.array([1.0, float(mean)])
    best_vector, iterations, converged, message = _interior_point(
        analyzer.degree_gradient(lengths), constraints, targets, start, max_iterations
    )
    best_vector = np.clip(best_vector, 0.0, None)
    if best_vector.sum() <= 0.0:
        raise OptimizationError("optimizer produced an all-zero probability vector")
    best_degree = degree_of_vector(best_vector)

    # Keep the start when it scores higher, but only a start that meets the
    # mean (a caller's ``initial`` need not).
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
        iterations=iterations,
        converged=converged,
        message=message,
    )


def _interior_point(
    evaluate: DegreeGradient,
    constraints: np.ndarray,
    targets: np.ndarray,
    start: np.ndarray,
    max_iterations: int,
) -> tuple[np.ndarray, int, bool, str]:
    """Maximise ``H*(p)`` subject to ``constraints @ p = targets`` and ``p >= 0``.

    Mehrotra's predictor-corrector primal-dual method on ``min f = -H*``
    with multipliers ``y`` and reduced costs ``z >= 0``.  Each Newton step
    builds the KKT matrix ``[[Q + Z/P + _PROXIMAL, -A.T], [A, 0]]``, where
    ``Q`` is the exact Hessian of ``f``, and solves it twice: once for the
    affine predictor, and once for the corrector, which aims at
    ``sigma * mu`` with ``sigma = (mu_aff / mu)**3`` and adds the
    predictor's second-order term.  Primal and dual variables take one
    common step, ``_STEP_TO_BOUNDARY`` of the way to the nearer boundary,
    because ``f``'s gradient ties them together.  The run stops once the
    constraints hold and the multipliers certify a duality gap of at most
    ``_GAP_TOLERANCE`` bits.  That test, unlike one on the dual residual,
    also ends at an optimal vertex where a class's weights all vanish: its
    entropy, and so the gradient, then hangs on the ratio of vanishing
    entries, and the residual never settles.

    The start is infeasible on purpose: ``start`` mixed half and half with
    the uniform pmf, so every entry is positive, with ``y`` the least-squares
    multipliers of its gradient and ``z`` their residual lifted above zero.
    Returns ``(pmf, Newton steps, converged, message)``.
    """
    dimension = len(start)
    pmf = 0.5 * start + 0.5 / dimension
    slope, hessian = _negated_second_order(evaluate, pmf)
    multipliers = np.linalg.lstsq(constraints.T, slope, rcond=None)[0]
    reduced = slope - constraints.T @ multipliers
    reduced = np.maximum(reduced, 0.0) + 0.1 * max(1.0, float(np.abs(reduced).max()))
    kkt = np.zeros((dimension + len(targets),) * 2)
    kkt[dimension:, :dimension] = constraints
    kkt[:dimension, dimension:] = -constraints.T
    diagonal = np.arange(dimension)
    primal_tolerance = _PRIMAL_TOLERANCE * (1.0 + float(np.abs(targets).max()))
    for step in range(max_iterations + 1):
        primal_residual = constraints @ pmf - targets
        # The multipliers certify the duality gap: with every q that meets
        # the constraints, f(p) - f(q) <= c.p - c.q for c = grad f - A.T y,
        # and c.q >= min(c) because q sums to one.
        certificate = slope - constraints.T @ multipliers
        gap = float(pmf @ certificate) - min(0.0, float(certificate.min()))
        if np.abs(primal_residual).max() <= primal_tolerance and gap <= _GAP_TOLERANCE:
            return pmf, step, True, f"converged: duality gap {gap:.1e} bits"
        if step == max_iterations:
            break
        dual_residual = certificate - reduced
        complementarity = float(pmf @ reduced)
        kkt[:dimension, :dimension] = hessian
        kkt[diagonal, diagonal] += reduced / pmf + _PROXIMAL
        residuals = (pmf, reduced, dual_residual, primal_residual)
        try:
            affine, _, affine_reduced = _newton_step(kkt, *residuals, -pmf * reduced)
            predicted_gap = float(
                (pmf + min(1.0, _to_boundary(pmf, affine)) * affine)
                @ (reduced + min(1.0, _to_boundary(reduced, affine_reduced)) * affine_reduced)
            )
            centring = (
                (predicted_gap / complementarity) ** 3 * complementarity / dimension
                if complementarity > 0.0
                else 0.0
            )
            move, multiplier_move, reduced_move = _newton_step(
                kkt, *residuals, centring - pmf * reduced - affine * affine_reduced
            )
        except np.linalg.LinAlgError:
            return pmf, step, False, "the KKT matrix is singular"
        length = min(
            1.0,
            _STEP_TO_BOUNDARY * _to_boundary(pmf, move),
            _STEP_TO_BOUNDARY * _to_boundary(reduced, reduced_move),
        )
        pmf = pmf + length * move
        multipliers = multipliers + length * multiplier_move
        reduced = reduced + length * reduced_move
        slope, hessian = _negated_second_order(evaluate, pmf)
        if not (np.isfinite(slope).all() and np.isfinite(hessian).all()):
            return pmf, step + 1, False, "the Newton model is not finite"
    return pmf, max_iterations, False, f"{max_iterations} Newton steps did not converge"


def _newton_step(
    kkt: np.ndarray,
    pmf: np.ndarray,
    reduced: np.ndarray,
    dual_residual: np.ndarray,
    primal_residual: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One solve of the KKT system: the moves of ``p``, ``y`` and ``z``.

    ``target`` is the complementarity the step aims at, linearised:
    ``p * z + z * dp + p * dz = target + p * z``.
    """
    dimension = len(pmf)
    solution = np.linalg.solve(
        kkt, np.concatenate([target / pmf - dual_residual, -primal_residual])
    )
    move = solution[:dimension]
    return move, solution[dimension:], (target - reduced * move) / pmf


def _negated_second_order(evaluate: DegreeGradient, pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient and Hessian of ``-H*`` at ``pmf``."""
    _, gradient, hessian = evaluate.second_order(pmf)
    return -gradient, -hessian


def _to_boundary(values: np.ndarray, move: np.ndarray) -> float:
    """The largest step in ``(0, inf]`` keeping ``values + step * move >= 0``."""
    shrinking = move < 0.0
    if not shrinking.any():
        return float("inf")
    return float(np.min(-values[shrinking] / move[shrinking]))


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
