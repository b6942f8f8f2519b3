"""The vectorized Monte-Carlo anonymity estimator.

:class:`BatchMonteCarlo` is a drop-in, statistically identical replacement for
:class:`repro.simulation.experiment.StrategyMonteCarlo`.  Where the hop-by-hop
estimator builds one message, one observation, and one exact Bayesian
posterior per trial, the batch estimator exploits the symmetry result of the
paper: the posterior entropy of a trial depends *only* on which symmetric
observation class the trial falls into.  One run therefore decomposes into
chunks of the :class:`~repro.batch.engine.TrialEngine` kernel
``accumulate_chunk`` — bulk draws, an array-op histogram of class keys, and
exact per-class entropies (one inference per *class*) — reduced to a
:class:`~repro.batch.engine.BatchAccumulator`.

:class:`BatchMonteCarlo` itself is a thin dispatcher: it takes the
configuration's engine from :func:`repro.batch.engine.shared_engine`, which
picks the :class:`~repro.batch.engine.TrialEngine` through
:func:`~repro.batch.engine.select_engine` on a cache miss, and delegates the
run.  The four engines — ``five-class``, ``arrangement``, ``cycle``, and
``topology`` — cover one compromised node on the paper's core domain, any
``C`` with honest receivers on simple paths, cycle-allowed (Crowds-style)
strategies at any ``C``, and non-clique topologies.

Because scoring reuses exact per-class entropies, the per-trial entropy
samples follow exactly the same law as the hop-by-hop estimator's — same
mean, same variance, same confidence intervals in distribution — at a
fraction of the interpreter cost (no per-trial objects, no per-hop loops).
The accumulator is the unit the ``sharded`` multiprocess backend ships
between processes: shards merge by summing counts, never by pickling
per-trial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.batch.engine import BatchAccumulator, TrialEngine, shared_engine
from repro.core.model import SystemModel
from repro.distributions.base import PathLengthDistribution
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry.metrics import get_registry
from repro.utils.rng import RandomSource

__all__ = ["BatchMonteCarlo", "BatchAccumulator"]


@dataclass
class BatchMonteCarlo:
    """Vectorized estimator of ``H*(S)`` for a path-selection strategy.

    Constructor-compatible with
    :class:`~repro.simulation.experiment.StrategyMonteCarlo`.
    :func:`~repro.batch.engine.select_engine` picks the columnar pipeline by
    the strategy and model:

    * one compromised node with the paper's compromised receiver on simple
      paths runs on the five-class engine (the closed form's symmetry
      classes);
    * any other ``C >= 0`` on simple paths — including an honest receiver —
      runs on the arrangement engine, whose classes are canonical
      observations and whose per-class entropies come from the exact
      fragment-arrangement counts in :mod:`repro.combinatorics`;
    * cycle-allowed strategies (Crowds, Onion Routing II, Hordes) run on the
      cycle engine of :mod:`repro.batch.cycleengine` at any ``C``, whose
      classes are priced by the cycle-aware walk-counting inference engine;
    * any non-clique topology runs on the topology engine of
      :mod:`repro.batch.topoengine`.

    All engines sample only observations; posteriors are always exact.

    The engine comes from the process-wide cache of
    :func:`~repro.batch.engine.shared_engine`, so estimators of one
    configuration share one engine and its class prices.  With telemetry
    active, construction counts into ``engine_builds_total`` on a cache miss
    and ``engine_reuses_total`` on a hit, labelled by engine.
    """

    model: SystemModel
    strategy: PathSelectionStrategy
    compromised: frozenset[int] | None = None

    _engine: TrialEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.compromised is None:
            self.compromised = self.model.compromised_nodes()
        self.compromised = frozenset(self.compromised)
        # Identity-range validation happens in TrialEngine.__init__, which
        # every selected engine runs when it is first built.
        self._engine, reused = shared_engine(
            self.model, self.strategy, self.compromised
        )
        telemetry = get_registry()
        if telemetry.enabled:
            metric = "engine_reuses_total" if reused else "engine_builds_total"
            telemetry.counter(metric, engine=self._engine.name).inc()

    # ------------------------------------------------------------------ #
    # Estimation                                                          #
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> TrialEngine:
        """The :class:`~repro.batch.engine.TrialEngine` serving this run."""
        return self._engine

    @property
    def distribution(self) -> PathLengthDistribution:
        """The effective (feasibility-truncated) distribution being estimated."""
        return self._engine.distribution

    def run(self, n_trials: int, rng: RandomSource = None):
        """Run ``n_trials`` vectorized trials and return a ``MonteCarloReport``."""
        accumulator = self.run_accumulate(n_trials, rng=rng)
        return accumulator.report(self.model, self.distribution.name)

    def run_accumulate(
        self, n_trials: int, rng: RandomSource = None
    ) -> BatchAccumulator:
        """Run ``n_trials`` vectorized trials and return the raw accumulator.

        This is the shard-sized unit of work of the ``sharded`` backend: the
        returned accumulator is a columnar reduction (per-class counts plus a
        length sum), cheap to pickle and mergeable by summation.
        """
        return self._engine.run_accumulate(n_trials, rng=rng)

    # ------------------------------------------------------------------ #
    # Conveniences                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_distribution(
        cls,
        model: SystemModel,
        distribution: PathLengthDistribution,
    ) -> "BatchMonteCarlo":
        """Build an estimator straight from a distribution (no named strategy)."""
        strategy = PathSelectionStrategy(
            name=distribution.name, distribution=distribution
        )
        return cls(model=model, strategy=strategy)
