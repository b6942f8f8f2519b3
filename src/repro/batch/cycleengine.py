"""The vectorized trial engines for cycle-allowed path strategies.

These are the cycle-path members of the :class:`~repro.batch.engine.TrialEngine`
registry (after the five-class and arrangement simple-path engines): they
bring Crowds-style protocols onto the batch fast path for *any* number of
compromised nodes.  One run decomposes into the protocol's three columnar
stages:

1. **sample_block** — draw whole trial blocks of Markov-style hop transitions
   (:class:`~repro.batch.cyclesampler.CycleTrialSampler`);
2. **classify** — histogram every trial into its cycle observation class
   (:func:`~repro.batch.cycleclassify.classify_cycle_trials`);
3. **score** — price each *distinct* class exactly once with the cycle-aware
   exact Bayesian engine (:class:`CycleScoreTable` over
   :class:`repro.adversary.inference.BayesianPathInference`), then gather.

Because stage 3 reuses exact per-class entropies, the per-trial entropy
samples follow exactly the same law as the hop-by-hop event engine's — the
class key provably determines the posterior entropy (see
:mod:`repro.adversary.inference`) — at a large multiple of its throughput:
the event engine runs one exact inference per *trial*, these engines one per
*class*, and the number of distinct classes is tiny.

Scoring goes through a **canonical representative**: the class
representative's concrete path is relabelled so honest nodes appear in first-
appearance order while compromised identities stay fixed.  Equal keys
therefore price through bit-identical arithmetic, which keeps shard merges
exact and cached service replays bit-stable no matter which concrete trial
first exhibited a class.

Two registrations share the implementation:

* :class:`CycleBatchEngine` (``"cycle"``) — the single-compromised fast path
  of PR 4, unchanged bit for bit;
* :class:`MultiCycleEngine` (``"cycle-multi"``) — the engine that closes the
  roadmap's last coverage gap: cycle paths with ``C != 1`` (including
  ``C = 0``), classified by multi-node walk-pattern keys and priced by the
  honest-subgraph walk counts of :mod:`repro.combinatorics.walks`.

Trial blocks are processed in fixed-size chunks so the hop matrix of a
multi-million-trial run never materialises at once; the chunk size is a
constant, part of the determinism contract.
"""

from __future__ import annotations

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.batch._accel import resolve_use_numpy
from repro.batch.cycleclassify import classify_cycle_trials
from repro.batch.cyclesampler import CycleTrialSampler
from repro.batch.engine import TrialEngine, register_engine
from repro.core.model import PathModel, SystemModel
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.results import IDENTIFIED_THRESHOLD
from repro.telemetry.metrics import get_registry

__all__ = [
    "CycleScoreTable",
    "CycleBatchEngine",
    "MultiCycleEngine",
    "CHUNK_TRIALS",
]

#: Trials sampled per columnar chunk.  A constant: chunk boundaries shape the
#: generator consumption, so this is part of the (seed -> bits) contract.
CHUNK_TRIALS = 65_536


class CycleScoreTable:
    """Lazily scored ``class key -> (entropy, identified)`` table.

    Unlike the simple-path tables, cycle classes are discovered from the data
    (how often compromised nodes recur, which anchors coincide), so the
    table prices classes on first sight and memoises: build one canonical
    representative observation for the class, hand it to the exact cycle
    inference engine, and reuse the score for every later trial of the class.
    Any number of compromised nodes is supported; the inference engine counts
    honest segments in the sub-clique avoiding the whole compromised set.
    With telemetry active, each miss counts into ``classes_priced_total`` and
    times into ``class_price_seconds``, both labelled with ``engine``.
    """

    def __init__(
        self,
        model: SystemModel,
        distribution: PathLengthDistribution,
        compromised: frozenset[int],
        engine: str = "cycle",
    ) -> None:
        self._engine = engine
        self._compromised = frozenset(compromised)
        self._model = model.with_path_model(PathModel.CYCLE_ALLOWED)
        self._inference = BayesianPathInference(
            self._model, distribution, self._compromised
        )
        self._scores: dict[tuple, tuple[float, bool]] = {}

    @property
    def n_classes(self) -> int:
        """Number of distinct classes priced so far."""
        return len(self._scores)

    def score(
        self, key: tuple, sender: int, path: tuple[int, ...]
    ) -> tuple[float, bool]:
        """Exact ``(entropy_bits, identified)`` of the class of ``key``.

        ``sender``/``path`` are any concrete trial of the class; they are
        canonicalised before pricing, so the returned floats depend only on
        the key.
        """
        cached = self._scores.get(key)
        if cached is not None:
            return cached
        telemetry = get_registry()
        started = telemetry.clock() if telemetry.enabled else 0.0
        sender, path = self._canonical(sender, path)
        observation = observation_from_path(
            sender,
            path,
            self._compromised,
            receiver_compromised=self._model.receiver_compromised,
        )
        posterior = self._inference.posterior(observation)
        score = (
            posterior.entropy_bits,
            posterior.max_probability >= IDENTIFIED_THRESHOLD,
        )
        self._scores[key] = score
        if telemetry.enabled:
            telemetry.counter("classes_priced_total", engine=self._engine).inc()
            telemetry.histogram(
                "class_price_seconds", engine=self._engine
            ).observe(telemetry.clock() - started)
        return score

    def _canonical(
        self, sender: int, path: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...]]:
        """Relabel honest nodes in first-appearance order.

        The posterior entropy is invariant under relabelling of honest nodes,
        so mapping every representative onto the same canonical identities —
        compromised identities stay fixed — makes the score arithmetic, and
        hence its last-ulp floats, a pure function of the class key.
        """
        compromised = self._compromised
        fresh = iter(
            node
            for node in range(self._model.n_nodes)
            if node not in compromised
        )
        mapping = {node: node for node in compromised}
        relabelled = []
        for node in (sender, *path):
            node = int(node)
            if node not in mapping:
                mapping[node] = next(fresh)
            relabelled.append(mapping[node])
        return relabelled[0], tuple(relabelled[1:])


class CycleBatchEngine(TrialEngine):
    """Columnar Monte-Carlo kernel for one cycle-allowed strategy (``C = 1``).

    Selected by :class:`~repro.batch.estimator.BatchMonteCarlo` when the
    strategy's path model is :attr:`~repro.core.model.PathModel.CYCLE_ALLOWED`
    with one compromised node; it produces the same
    :class:`~repro.batch.engine.BatchAccumulator` currency as the simple-path
    engines, so sharding, adaptive scheduling, and the service cache compose
    with it unchanged.
    """

    name = "cycle"
    chunk_trials = CHUNK_TRIALS

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
        use_numpy: bool | None = None,
    ) -> None:
        super().__init__(model, strategy, compromised, use_numpy)
        if strategy.path_model is not PathModel.CYCLE_ALLOWED:
            raise ConfigurationError(
                f"{type(self).__name__} requires a cycle-allowed strategy, got "
                f"{strategy.path_model!r}"
            )
        self._sampler = CycleTrialSampler(
            n_nodes=model.n_nodes, distribution=self._distribution
        )
        self._score_table = CycleScoreTable(
            model=model.with_compromised(len(self.compromised)),
            distribution=self._distribution,
            compromised=self.compromised,
            engine=self.name,
        )

    @classmethod
    def covers(cls, model, strategy, compromised) -> bool:
        return (
            model.clique_routing
            and strategy.path_model is PathModel.CYCLE_ALLOWED
            and len(compromised) == 1
        )

    def sample_block(self, n_trials: int, generator):
        return self._sampler.draw(n_trials, generator, use_numpy=self.use_numpy)

    def classify(self, block) -> dict[tuple, tuple[int, int]]:
        return classify_cycle_trials(
            block,
            self.compromised,
            adversary=self.model.adversary,
            receiver_compromised=self.model.receiver_compromised,
            use_numpy=self.use_numpy,
        )

    def score(self, key, block, representative) -> tuple[float, bool]:
        return self._score_table.score(
            key, block.senders[representative], block.path(representative)
        )

    def fused_accumulate(self, n_trials, generator):
        if not resolve_use_numpy(self.use_numpy):
            return super().fused_accumulate(n_trials, generator)
        from repro.batch.fused import fused_cycle_accumulate

        return fused_cycle_accumulate(self, n_trials, generator)


class MultiCycleEngine(CycleBatchEngine):
    """The fourth built-in engine: cycle-allowed paths with ``C != 1``.

    Shares the sampler (hop identities carry no compromised knowledge), the
    multi-node classifier keys of :mod:`repro.batch.cycleclassify`, and the
    generalised :class:`CycleScoreTable` with the ``C = 1`` engine; only the
    covered domain differs.  ``C = 0`` degenerates to the silent class under
    every adversary, and any larger ``C`` rides on the honest-subgraph walk
    counts — validated exactly against exhaustive enumeration in
    ``tests/test_cycle.py`` and the ``ext-cycle`` experiment.
    """

    name = "cycle-multi"

    @classmethod
    def covers(cls, model, strategy, compromised) -> bool:
        return (
            model.clique_routing
            and strategy.path_model is PathModel.CYCLE_ALLOWED
            and len(compromised) != 1
        )


# Most general last: selection walks the registry in reverse, so the
# dedicated C = 1 kernel keeps the paper's core cycle domain while the
# multi-node engine picks up everything else.
register_engine(MultiCycleEngine.name, MultiCycleEngine)
register_engine(CycleBatchEngine.name, CycleBatchEngine)
