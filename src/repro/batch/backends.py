"""Pluggable estimator backends for the anonymity degree.

Every consumer of ``H*(S)`` — the sweeps behind the paper's figures, the
extension experiments, the CLI — ultimately needs the same thing: "given a
system model and a path-selection strategy, estimate the anonymity degree".
Three engines can answer, with very different cost/coverage trade-offs:

``exact``
    The closed form of :class:`repro.core.anonymity.AnonymityAnalyzer`.
    Zero variance, instant — but limited to one compromised node on simple
    paths with a compromised receiver.
``event``
    The hop-by-hop sampler :class:`repro.simulation.experiment.StrategyMonteCarlo`:
    one observation object and one exact Bayesian posterior per trial.  The
    most general engine (any number of compromised nodes, cycle-free or not)
    and the slowest.
``batch``
    The vectorized :class:`repro.batch.estimator.BatchMonteCarlo`: a
    dispatcher over the :class:`~repro.batch.engine.TrialEngine` registry
    (bulk draws, array classification, per-class entropies).
    Statistically identical to ``event`` on its whole domain — ``C > 1``,
    honest receivers, and cycle-allowed paths at any ``C`` included — at a
    large multiple of its throughput.
``sharded``
    The multiprocess :class:`repro.batch.sharded.ShardedBackend`: ``batch``
    kernels fanned out over worker processes, merged through per-class
    accumulators.  Accepts ``workers=`` / ``shards=`` options.

The registry makes the choice a string, so callers (``analysis.sweep``, the
``repro-anon batch`` CLI, the experiment registry) can switch engines without
importing any of them, and downstream code can plug in new engines (remote,
GPU, ...) with :func:`register_backend`.  Backend-specific constructor options
(``workers``, ``shards``, ...) flow through the ``**options`` of
:func:`get_backend` / :func:`estimate_anonymity`.

Every backend returns the same
:class:`repro.core.results.MonteCarloReport`; the exact backend
reports a zero-width confidence interval.
"""

from __future__ import annotations

import abc
import logging
from collections.abc import Callable
from typing import Any

from repro.batch.estimator import BatchMonteCarlo
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.core.results import IDENTIFIED_THRESHOLD, EstimateWithCI, MonteCarloReport
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.rng import RandomSource

__all__ = [
    "EstimatorBackend",
    "ExactBackend",
    "EventBackend",
    "BatchBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "estimate_anonymity",
]

logger = logging.getLogger(__name__)


class EstimatorBackend(abc.ABC):
    """One engine that estimates the anonymity degree of a strategy."""

    #: Registry key and display name of the backend.
    name: str = "abstract"

    @abc.abstractmethod
    def estimate(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int = 10_000,
        rng: RandomSource = None,
    ) -> MonteCarloReport:
        """Estimate ``H*(S)`` and return a ``MonteCarloReport``."""


class ExactBackend(EstimatorBackend):
    """Closed-form evaluation (no sampling; ``n_trials`` and ``rng`` ignored)."""

    name = "exact"

    def estimate(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int = 10_000,
        rng: RandomSource = None,
    ) -> MonteCarloReport:
        distribution = strategy.effective_distribution(model.n_nodes)
        analysis = AnonymityAnalyzer(model).analyze(distribution)
        identification = sum(
            summary.probability
            for summary in analysis.events
            if summary.top_posterior >= IDENTIFIED_THRESHOLD
        )
        return MonteCarloReport(
            estimate=EstimateWithCI(
                mean=analysis.degree_bits, std_error=0.0, n_samples=0
            ),
            n_trials=0,
            distribution=distribution.name,
            model=model,
            mean_path_length=distribution.mean(),
            identification_rate=identification,
        )


class EventBackend(EstimatorBackend):
    """Hop-by-hop per-observation sampling (``StrategyMonteCarlo``)."""

    name = "event"

    def estimate(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int = 10_000,
        rng: RandomSource = None,
    ) -> MonteCarloReport:
        from repro.simulation.experiment import StrategyMonteCarlo

        return StrategyMonteCarlo(model, strategy).run(n_trials, rng=rng)


class BatchBackend(EstimatorBackend):
    """Vectorized columnar sampling (``BatchMonteCarlo``)."""

    name = "batch"

    def estimate(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int = 10_000,
        rng: RandomSource = None,
    ) -> MonteCarloReport:
        return BatchMonteCarlo(model, strategy).run(n_trials, rng=rng)

    def accumulate_runner(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int] | None = None,
    ) -> Callable[..., Any]:
        """Bind one kernel for block accumulation (the adaptive-service hook).

        Returns a callable ``(n_trials, rng) -> BatchAccumulator``.  The
        kernel — including its exact per-class score table — comes from the
        process-wide engine cache (:func:`~repro.batch.engine.shared_engine`),
        so it is built once per configuration per process and reused across
        every block of an adaptive run and by later requests.
        ``compromised`` names the compromised identities; ``None`` keeps the
        model's canonical set.
        """
        return BatchMonteCarlo(model, strategy, compromised).run_accumulate


# ---------------------------------------------------------------------- #
# Registry                                                                #
# ---------------------------------------------------------------------- #

_BACKENDS: dict[str, Callable[..., EstimatorBackend]] = {
    ExactBackend.name: ExactBackend,
    EventBackend.name: EventBackend,
    BatchBackend.name: BatchBackend,
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(name: str, **options: Any) -> EstimatorBackend:
    """Instantiate the backend registered under ``name``.

    ``options`` are forwarded to the backend factory — e.g.
    ``get_backend("sharded", workers=8)``.  Factories reject options they do
    not understand with a ``TypeError``, exactly like any constructor.
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(_BACKENDS)
        raise ConfigurationError(
            f"unknown estimator backend {name!r}; registered backends: {known}"
        ) from None
    logger.debug("selected backend %r with options %r", name, options)
    return factory(**options)


def register_backend(
    name: str,
    factory: Callable[..., EstimatorBackend],
    overwrite: bool = False,
) -> None:
    """Register a new estimator backend under ``name``.

    This is how new engines reach every sweep and CLI entry point without
    touching call sites: the in-tree ``sharded`` backend registers itself this
    way (see :mod:`repro.batch.sharded`), and downstream code can do the same
    for remote or accelerator-specific engines.  ``factory`` must accept the
    keyword options callers pass through :func:`get_backend` for that name and
    return an :class:`EstimatorBackend`.
    """
    if name in _BACKENDS and not overwrite:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass overwrite=True to replace it"
        )
    _BACKENDS[name] = factory


def estimate_anonymity(
    model: SystemModel,
    strategy: PathSelectionStrategy | PathLengthDistribution,
    n_trials: int = 10_000,
    rng: RandomSource = None,
    backend: str = "batch",
    **backend_options: Any,
) -> MonteCarloReport:
    """One-call estimation through a named backend.

    ``strategy`` may be a full :class:`PathSelectionStrategy` or a bare
    :class:`PathLengthDistribution` (wrapped into a simple-path strategy).
    ``backend_options`` parameterise the backend itself, e.g.
    ``backend="sharded", workers=8``.
    """
    if isinstance(strategy, PathLengthDistribution):
        strategy = PathSelectionStrategy(name=strategy.name, distribution=strategy)
    return get_backend(backend, **backend_options).estimate(
        model, strategy, n_trials=n_trials, rng=rng
    )
