"""Adaptive-precision scheduling: run until the estimate is good enough.

Fixed trial budgets waste work in both directions — easy configurations are
over-sampled, hard ones under-sampled.  The :class:`AdaptiveScheduler`
replaces the budget with a *precision target*: it runs successive **blocks**
of trials through an accumulating estimator backend, merges the per-block
:class:`~repro.batch.estimator.BatchAccumulator`\\ s, and stops as soon as the
95% confidence-interval half-width of the entropy estimate falls below the
target (or the trial ceiling is hit).

The sample variance cannot see a class the run has not drawn yet — with
small blocks, a run could otherwise stop after two trials of one class with
a zero-width interval.  So the precision rule fires only once the run holds
at least :func:`trial_floor` trials: by the rule of three, a class unseen in
``n`` trials may still carry ``3/n`` of the mass, and one trial's entropy
lies in ``[0, log2 N]``, so ``n >= 3 * log2(N) / precision`` keeps the
unseen mass's pull on the mean within the target.

Determinism
-----------
The trial sequence is a pure function of ``(seed, block_size)``: block ``i``
runs on the ``i``-th sub-seed drawn from the parent generator, and blocks are
merged in round order.  Because the per-block kernels are themselves
deterministic (see ``docs/backends.md``), two runs with the same
``(seed, block_size)`` — and, for the ``sharded`` backend, the same
``shards`` — produce bit-identical reports, which is what lets the service
cache results by content digest.  The stopping rule reads only merged
statistics, so it, too, is deterministic.

``batch`` and ``sharded`` accumulate: each exposes
``accumulate_runner(model, strategy)`` — a callable
``(n_trials, rng) -> BatchAccumulator`` — and a run with an explicit
compromised set passes it as a third argument.  The ``exact`` backend
short-circuits (zero variance, zero trials); ``event`` has no accumulator
and is rejected with a clear error instead of a silent statistical
downgrade.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Callable, Collection
from dataclasses import dataclass
from typing import Any

from repro.batch.backends import EstimatorBackend, get_backend
from repro.batch.estimator import BatchAccumulator
from repro.core.model import SystemModel
from repro.core.results import MonteCarloReport, _Z_95 as Z_95
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import trace_span
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "AdaptiveRun",
    "AdaptiveScheduler",
    "RoundProgress",
    "STOP_PRECISION",
    "STOP_BUDGET",
    "STOP_EXACT",
    "trial_floor",
]

logger = logging.getLogger(__name__)

#: Stop reasons reported by :class:`AdaptiveRun`.
STOP_PRECISION = "precision"      #: the CI half-width target was reached
STOP_BUDGET = "max_trials"        #: the trial ceiling was exhausted first
STOP_EXACT = "exact"              #: a zero-variance backend answered directly


def trial_floor(n_nodes: int, precision: float) -> int:
    """Trials a run must hold before the precision rule may stop it.

    ``ceil(3 * log2(N) / precision)``: a class the run has never drawn may
    still carry ``3/n`` of the mass after ``n`` trials (the rule of three),
    and its entropy may lie anywhere in ``[0, log2 N]``.
    """
    return math.ceil(3 * math.log2(n_nodes) / precision)


@dataclass(frozen=True)
class AdaptiveRun:
    """Outcome of one adaptive estimation: the report plus how it stopped."""

    report: MonteCarloReport
    rounds: int
    converged: bool
    stop_reason: str
    #: ``(cumulative trials, CI half-width)`` after each round, in order.
    trajectory: tuple[tuple[int, float], ...]
    elapsed_seconds: float

    @property
    def n_trials(self) -> int:
        """Trials actually spent."""
        return self.report.n_trials

    @property
    def half_width(self) -> float:
        """Achieved 95% CI half-width in bits."""
        return Z_95 * self.report.estimate.std_error

    @property
    def convergence_history(self) -> tuple[tuple[int, float], ...]:
        """Per-round ``(cumulative trials, CI half-width)`` — the diagnostics
        name for :attr:`trajectory`, surfaced by ``--metrics`` and ``--json``."""
        return self.trajectory


@dataclass(frozen=True)
class RoundProgress:
    """Live state after one adaptive round, for ``on_round`` observers.

    Carries the convergence point of the round plus a ``1/sqrt(n)``
    extrapolation of the work remaining — the CI half-width shrinks as the
    inverse square root of the trial count, so the trials needed to reach the
    target are ``n * (half_width / precision)^2``, at least the run's
    :func:`trial_floor` (``min_trials``), capped by the budget.
    """

    rounds: int
    n_trials: int
    half_width: float
    precision: float | None
    block_size: int
    max_trials: int
    min_trials: int = 0

    @property
    def trials_to_target(self) -> int | None:
        """Extrapolated further trials needed (``None`` without a target)."""
        if self.precision is None:
            return None
        needed = float(self.min_trials)
        if self.half_width > self.precision:
            needed = max(needed, self.n_trials * (self.half_width / self.precision) ** 2)
        return max(math.ceil(min(needed, self.max_trials)) - self.n_trials, 0)

    @property
    def rounds_to_target(self) -> int | None:
        """Extrapolated further rounds needed (``None`` without a target)."""
        trials = self.trials_to_target
        if trials is None:
            return None
        return math.ceil(trials / self.block_size)


class AdaptiveScheduler:
    """Run trial blocks through a backend until the CI is narrow enough.

    Parameters
    ----------
    backend:
        Backend name (resolved by :func:`~repro.batch.backends.get_backend`
        with ``backend_options``) or a ready :class:`EstimatorBackend`
        instance.
    precision:
        Target 95% CI half-width in bits, or ``None`` to always spend the
        full ``max_trials`` budget (useful for apples-to-apples comparisons).
        A run stops on it only once it holds :func:`trial_floor` trials.
    block_size:
        Trials per round.  Part of the determinism contract: changing it
        changes the sub-seed sequence and therefore the bits of the result.
    max_trials:
        Hard ceiling on total trials; reaching it stops the run un-converged.
    on_round:
        Optional callback invoked with a :class:`RoundProgress` after every
        round — trials done, achieved half-width, and the extrapolated
        rounds-to-target — the substrate of the CLI's ``--progress`` line.
        Purely observational: it cannot change the trial sequence, so the
        determinism contract is unaffected.
    """

    def __init__(
        self,
        backend: str | EstimatorBackend = "batch",
        precision: float | None = 0.01,
        block_size: int = 10_000,
        max_trials: int = 1_000_000,
        on_round: Callable[[RoundProgress], None] | None = None,
        **backend_options: Any,
    ) -> None:
        if precision is not None and precision <= 0.0:
            raise ConfigurationError(f"precision must be > 0, got {precision}")
        block_size = check_positive_int(block_size, "block_size")
        max_trials = check_positive_int(max_trials, "max_trials")
        if isinstance(backend, EstimatorBackend):
            if backend_options:
                raise ConfigurationError(
                    "backend_options only apply when the backend is given by "
                    "name; configure the instance directly instead"
                )
            self.backend = backend
        else:
            self.backend = get_backend(backend, **backend_options)
        self.precision = precision
        self.block_size = block_size
        self.max_trials = max_trials
        self.on_round = on_round

    def run(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy | PathLengthDistribution,
        rng: RandomSource = None,
        compromised: Collection[int] | None = None,
    ) -> AdaptiveRun:
        """Estimate ``H*(S)`` adaptively; returns the report plus stop metadata.

        ``compromised`` names the compromised identities; ``None`` keeps the
        model's canonical set ``{0, .., C-1}``.  An explicit set is handed to
        the backend's ``accumulate_runner`` as a third argument.
        """
        if isinstance(strategy, PathLengthDistribution):
            strategy = PathSelectionStrategy(
                name=strategy.name, distribution=strategy
            )
        with trace_span("adaptive.run", backend=self.backend.name) as span:
            run = self._run(model, strategy, rng, compromised)
            span.annotate(
                rounds=run.rounds,
                stop_reason=run.stop_reason,
                n_trials=run.n_trials,
            )
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.counter("adaptive_rounds_total").inc(run.rounds)
            telemetry.counter("adaptive_stops_total", reason=run.stop_reason).inc()
        logger.debug(
            "adaptive run stopped: reason=%s rounds=%d trials=%d half_width=%.6g",
            run.stop_reason,
            run.rounds,
            run.n_trials,
            run.half_width,
        )
        return run

    def _run(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        rng: RandomSource,
        compromised: Collection[int] | None,
    ) -> AdaptiveRun:
        started = time.perf_counter()
        if self.backend.name == "exact":
            report = self.backend.estimate(model, strategy, rng=rng)
            return AdaptiveRun(
                report=report,
                rounds=0,
                converged=True,
                stop_reason=STOP_EXACT,
                trajectory=(),
                elapsed_seconds=time.perf_counter() - started,
            )
        runner = getattr(self.backend, "accumulate_runner", None)
        if runner is None:
            raise ConfigurationError(
                f"backend {self.backend.name!r} does not support block "
                "accumulation; adaptive estimation needs the 'batch' or "
                "'sharded' backend"
            )
        accumulate = (
            runner(model, strategy)
            if compromised is None
            else runner(model, strategy, frozenset(compromised))
        )
        distribution = strategy.effective_distribution(model.n_nodes)
        block_size = self.block_size
        min_trials = (
            0 if self.precision is None else trial_floor(model.n_nodes, self.precision)
        )

        generator = ensure_rng(rng)
        merged: BatchAccumulator | None = None
        trajectory: list[tuple[int, float]] = []
        rounds = 0
        while True:
            block = min(block_size, self.max_trials - (merged.n_trials if merged else 0))
            sub_seed = int(generator.integers(0, 2**63 - 1))
            with trace_span("engine.chunk", trials=block):
                part = accumulate(block, rng=sub_seed)
            merged = part if merged is None else BatchAccumulator.merge([merged, part])
            rounds += 1
            half_width = self._half_width(merged)
            trajectory.append((merged.n_trials, half_width))
            if self.on_round is not None:
                self.on_round(
                    RoundProgress(
                        rounds=rounds,
                        n_trials=merged.n_trials,
                        half_width=half_width,
                        precision=self.precision,
                        block_size=block_size,
                        max_trials=self.max_trials,
                        min_trials=min_trials,
                    )
                )
            if (
                self.precision is not None
                and half_width <= self.precision
                and merged.n_trials >= min_trials
            ):
                converged = True
                stop_reason = STOP_PRECISION
                break
            if merged.n_trials >= self.max_trials:
                # With no precision target the full budget *is* the plan.
                converged = self.precision is None
                stop_reason = STOP_BUDGET
                break
        report = merged.report(model, distribution.name)
        return AdaptiveRun(
            report=report,
            rounds=rounds,
            converged=converged,
            stop_reason=stop_reason,
            trajectory=tuple(trajectory),
            elapsed_seconds=time.perf_counter() - started,
        )

    @staticmethod
    def _half_width(accumulator: BatchAccumulator) -> float:
        """95% CI half-width of the merged accumulator, without a full report.

        Reads :meth:`BatchAccumulator.grouped_moments` — the same statistics
        the final report is built from — so the stopping rule and the cached
        report can never disagree on the achieved precision.
        """
        _, std_error = accumulator.grouped_moments()
        return Z_95 * std_error
