"""The ``TrialEngine`` protocol: one shape for every vectorized estimator.

The paper's central symmetry result — a trial's posterior entropy depends
only on which symmetric *observation class* the trial falls into — means
every estimator is the same kernel: draw a chunk of trials, classify each
into its class, and price each distinct class exactly once.  This module
fixes that shape as one abstract method, ``accumulate_chunk``: draw
``n_trials`` trials from the generator in a fixed, documented order,
classify them with array operations, and return the chunk reduction
``(length_sum, {class key: (count, entropy, identified)})``.  Each engine
prices its classes *exactly* — via the closed form, the
fragment-arrangement counts, the cycle walk counts, or a topology's joint
class table — and memoises the prices, so a class costs one inference per
engine, never one per trial (and, through :func:`shared_engine`, one per
process).

The concrete driver :meth:`TrialEngine.run_accumulate` splits a budget into
chunks of :data:`CHUNK_TRIALS` trials and folds the chunk reductions into a
:class:`BatchAccumulator` — per-class counts plus a length sum — the
currency every layer above understands: the ``sharded`` backend ships
accumulators between processes, the adaptive scheduler merges them block by
block, and the result cache replays the reports they summarise bit for bit.

Four engines cover four disjoint domains, and :func:`select_engine` maps a
``(model, strategy, compromised)`` configuration to its engine, one branch
per domain:

================  =============================================  ==========================
engine            domain                                         classes
================  =============================================  ==========================
``topology``      any path model on a non-clique topology        enumerated observation keys
``cycle``         cycle-allowed paths on a clique, any ``C``     walk patterns
``five-class``    simple paths, ``C = 1``, compromised receiver  the paper's five events
``arrangement``   every other simple-path clique configuration   canonical observations
================  =============================================  ==========================

The two simple-path engines live in this module; the cycle engine lives in
:mod:`repro.batch.cycleengine` and the topology engine in
:mod:`repro.batch.topoengine`.  A new domain is a new branch in
:func:`select_engine`.

Because every engine prices a class from its key alone, an engine is a pure
function of its configuration.  :func:`shared_engine` therefore keeps one
engine per configuration per process, in a bounded, content-addressed cache,
and selects and builds the engine on a miss: adaptive rounds, service
requests and the ``sharded`` workers build and price each configuration
once, then reuse it.
"""

from __future__ import annotations

import abc
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.batch.multiclass import ClassScoreTable
from repro.batch.sampler import InverseCdfDecoder, chunk_buffer, decode_slots
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.events import EVENT_ORDER, EventClass, event_code
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.results import IDENTIFIED_THRESHOLD, EstimateWithCI, MonteCarloReport
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry.metrics import DEFAULT_RATE_BUCKETS, get_registry
from repro.telemetry.tracing import trace_span
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

logger = logging.getLogger(__name__)

__all__ = [
    "BatchAccumulator",
    "ChunkClasses",
    "TrialEngine",
    "FiveClassEngine",
    "ArrangementEngine",
    "select_engine",
    "shared_engine",
    "clear_engine_cache",
    "CHUNK_TRIALS",
    "ENGINE_CACHE_SIZE",
]

#: Trials drawn per chunk by every engine.  It bounds the live memory of a
#: run by one chunk, and chunk boundaries shape the generator consumption, so
#: it is part of the ``(seed -> bits)`` determinism contract.
#: :meth:`TrialEngine.run_accumulate` reads it at call time.
CHUNK_TRIALS = 65_536

#: Relative tolerance when merging per-class entropies across shards; scores
#: are deterministic functions of the class, so any real disagreement means
#: the shards were configured inconsistently.
_MERGE_RTOL = 1e-9

#: One chunk reduction's classes: ``{key: (count, entropy_bits, identified)}``.
ChunkClasses = dict[object, tuple[int, float, bool]]


@dataclass(frozen=True)
class BatchAccumulator:
    """Sufficient statistics of one batch run: per-class counts plus totals.

    ``classes`` maps an opaque, hashable class key to
    ``(count, entropy_bits, identified)``.  Because every trial of a class has
    the same exact posterior entropy, these counts — together with the summed
    path lengths — determine the full Monte-Carlo report: mean, sample
    variance, confidence interval, and identification rate.  Accumulators are
    tiny (a few dozen classes), picklable, and merge by summation, which is
    what the ``sharded`` backend ships across process boundaries instead of
    per-trial columns.
    """

    n_trials: int
    length_sum: int
    classes: dict[object, tuple[int, float, bool]]

    @staticmethod
    def merge(parts: "list[BatchAccumulator]") -> "BatchAccumulator":
        """Sum accumulators from independent shards into one."""
        if not parts:
            raise ConfigurationError("cannot merge zero batch accumulators")
        classes: dict[object, tuple[int, float, bool]] = {}
        n_trials = 0
        length_sum = 0
        for part in parts:
            n_trials += part.n_trials
            length_sum += part.length_sum
            for key, (count, entropy, identified) in part.classes.items():
                existing = classes.get(key)
                if existing is None:
                    classes[key] = (count, entropy, identified)
                    continue
                if not math.isclose(existing[1], entropy, rel_tol=_MERGE_RTOL):
                    raise ConfigurationError(
                        f"shard accumulators disagree on the entropy of class "
                        f"{key!r} ({existing[1]!r} vs {entropy!r}); shards must "
                        "share one model/strategy configuration"
                    )
                classes[key] = (existing[0] + count, existing[1], existing[2])
        return BatchAccumulator(
            n_trials=n_trials, length_sum=length_sum, classes=classes
        )

    def grouped_moments(self) -> tuple[float, float]:
        """Exact sample mean and ddof-1 standard error from the grouped counts.

        Per-trial entropy samples within a class are identical, so both
        moments follow exactly from the per-class counts; keys are folded in
        sorted order so the result is independent of dictionary insertion
        order.  This is the single source of the estimate's statistics —
        :meth:`report` and the adaptive scheduler's stopping rule both read
        it, so they can never disagree on the confidence interval.
        """
        n = self.n_trials
        if n < 1:
            raise ConfigurationError("cannot summarise an empty accumulator")
        ordered = [self.classes[key] for key in sorted(self.classes, key=repr)]
        mean = sum(count * entropy for count, entropy, _ in ordered) / n
        if n == 1:
            return mean, math.inf
        variance = (
            sum(count * (entropy - mean) ** 2 for count, entropy, _ in ordered)
            / (n - 1)
        )
        return mean, math.sqrt(variance / n)

    def report(self, model: SystemModel, distribution_name: str) -> MonteCarloReport:
        """Summarise into a :class:`~repro.core.results.MonteCarloReport`."""
        n = self.n_trials
        mean, std_error = self.grouped_moments()
        identified = sum(
            count for count, _, flag in self.classes.values() if flag
        )
        return MonteCarloReport(
            estimate=EstimateWithCI(mean=mean, std_error=std_error, n_samples=n),
            n_trials=n,
            distribution=distribution_name,
            model=model,
            mean_path_length=self.length_sum / n,
            identification_rate=identified / n,
        )


class TrialEngine(abc.ABC):
    """One vectorized estimation kernel: draw → classify → price, per chunk.

    An engine binds one ``(model, strategy, compromised)`` configuration at
    construction; :meth:`run_accumulate` then turns trial budgets into
    :class:`BatchAccumulator` reductions through :meth:`accumulate_chunk`.

    Determinism contract: :meth:`accumulate_chunk` must consume a fixed
    number of bulk draws in a fixed order per chunk, and :data:`CHUNK_TRIALS`
    fixes how a budget splits into chunks — so a run is a pure function of
    its seed, and shard merges can never disagree on a class entropy.

    Reuse contract: :func:`shared_engine` hands one instance to every run of
    its configuration in the process, across adaptive rounds, service
    requests, shard tasks and threads.  An engine must therefore keep no
    per-run state besides its memoised class prices, and each memoised price
    must be a function of its class key alone, so that concurrent misses on
    one class store the same value.  All four engines meet this.  The clique
    engines write their chunk temporaries into per-thread buffers
    (:func:`~repro.batch.sampler.chunk_buffer`), never into the engine, and
    a buffer handed out lives for one chunk on its thread: arrays a chunk's
    draw methods return are overwritten by the next chunk on that thread.
    """

    #: Display name of the engine: its telemetry label and span attribute.
    name: str = "abstract"

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
    ) -> None:
        self.model = model
        self.strategy = strategy
        self.compromised = frozenset(compromised)
        if model.n_nodes < 2:
            raise ConfigurationError(
                f"batch sampling needs at least 2 nodes, got n_nodes={model.n_nodes}"
            )
        if any(not 0 <= node < model.n_nodes for node in self.compromised):
            raise ConfigurationError(
                "compromised node identities must lie in [0, N)"
            )
        self._distribution = strategy.effective_distribution(model.n_nodes)

    @property
    def distribution(self) -> PathLengthDistribution:
        """The effective (feasibility-truncated) distribution being estimated."""
        return self._distribution

    @abc.abstractmethod
    def accumulate_chunk(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[int, ChunkClasses]:
        """Draw, classify, and price one chunk of ``n_trials`` trials.

        Returns ``(length_sum, {class key: (count, entropy, identified)})``.
        Keys must be hashable and ``repr``-stable; each distinct key is priced
        once per engine instance, and through :func:`shared_engine` once per
        configuration per process.
        """

    def run_accumulate(
        self, n_trials: int, rng: RandomSource = None
    ) -> BatchAccumulator:
        """Run ``n_trials`` trials in chunks of :data:`CHUNK_TRIALS`; one accumulator.

        This is the shard-sized unit of work of the ``sharded`` backend: the
        returned accumulator is a columnar reduction (per-class counts plus a
        length sum), cheap to pickle and mergeable by summation.

        When telemetry is active (see :mod:`repro.telemetry`), every chunk
        reports its trial count, wall time, and throughput under the engine's
        name; with the default null registry the instrumentation cost is one
        ``enabled`` check per chunk.
        """
        n_trials = check_positive_int(n_trials, "n_trials")
        generator = ensure_rng(rng)
        telemetry = get_registry()
        classes: dict[object, list] = {}
        length_sum = 0
        remaining = n_trials
        while remaining:
            block_trials = min(CHUNK_TRIALS, remaining)
            remaining -= block_trials
            chunk_started = telemetry.clock() if telemetry.enabled else 0.0
            chunk_length, chunk_classes = self.accumulate_chunk(
                block_trials, generator
            )
            length_sum += chunk_length
            for key, (count, entropy, identified) in chunk_classes.items():
                entry = classes.get(key)
                if entry is None:
                    classes[key] = [count, entropy, identified]
                else:
                    entry[0] += count
            if telemetry.enabled:
                chunk_seconds = telemetry.clock() - chunk_started
                telemetry.counter("engine_chunks_total", engine=self.name).inc()
                telemetry.counter(
                    "engine_trials_total", engine=self.name
                ).inc(block_trials)
                telemetry.histogram(
                    "engine_chunk_seconds", engine=self.name
                ).observe(chunk_seconds)
                if chunk_seconds > 0.0:
                    telemetry.histogram(
                        "engine_trials_per_second",
                        buckets=DEFAULT_RATE_BUCKETS,
                        engine=self.name,
                    ).observe(block_trials / chunk_seconds)
        return BatchAccumulator(
            n_trials=n_trials,
            length_sum=length_sum,
            classes={key: tuple(value) for key, value in classes.items()},
        )

    def run(self, n_trials: int, rng: RandomSource = None) -> MonteCarloReport:
        """Run ``n_trials`` trials and summarise into a ``MonteCarloReport``."""
        accumulator = self.run_accumulate(n_trials, rng=rng)
        return accumulator.report(self.model, self._distribution.name)


# ---------------------------------------------------------------------- #
# The simple-path engines                                                 #
# ---------------------------------------------------------------------- #


def _check_simple_path_support(
    distribution: PathLengthDistribution, n_nodes: int
) -> None:
    """Reject a length law that no simple path on ``n_nodes`` nodes can follow."""
    if distribution.max_length > n_nodes - 1:
        raise ConfigurationError(
            f"distribution {distribution.name} reaches length "
            f"{distribution.max_length}, infeasible for simple paths on "
            f"{n_nodes} nodes; truncate it first"
        )


_ORIGIN = event_code(EventClass.ORIGIN)
_SILENT = event_code(EventClass.SILENT)
_LAST = event_code(EventClass.LAST)
_PENULTIMATE = event_code(EventClass.PENULTIMATE)
_INTERIOR = event_code(EventClass.INTERIOR)


class FiveClassEngine(TrialEngine):
    """The paper's core domain: five symmetric classes, one closed form.

    One compromised node, compromised receiver, simple paths.  A trial is
    three integers (sender, length, compromised hop slot — see
    :mod:`repro.batch.sampler`); one exact closed-form evaluation prices all
    five classes up front, so a chunk reduces to a handful of counts.
    """

    name = "five-class"

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
    ) -> None:
        super().__init__(model, strategy, compromised)
        if not (
            model.clique_routing
            and strategy.path_model is PathModel.SIMPLE
            and len(self.compromised) == 1
            and model.receiver_compromised
        ):
            raise ConfigurationError(
                "the five-class engine covers one compromised node with a "
                "compromised receiver on simple paths; got "
                f"C={len(self.compromised)} on {strategy.path_model.value} paths"
            )
        _check_simple_path_support(self._distribution, model.n_nodes)
        (self._compromised_node,) = self.compromised
        self._lengths = InverseCdfDecoder(self._distribution)
        # One exact closed-form evaluation yields the entropy and the
        # identification flag of every class; chunks only count them.
        analysis = AnonymityAnalyzer(
            model.with_compromised(1)
        ).analyze(self._distribution)
        entropies = []
        identified = set()
        for code, event_class in enumerate(EVENT_ORDER):
            summary = analysis.event(event_class)
            entropies.append(summary.entropy_bits)
            if summary.top_posterior >= IDENTIFIED_THRESHOLD:
                identified.add(code)
        self._entropy_by_code = tuple(entropies)
        self._identified_codes = frozenset(identified)

    def accumulate_chunk(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[int, ChunkClasses]:
        """Draw senders, lengths, and slots; count the five classes.

        Works in *slot* space: a trial's compromised node is on the path at
        position ``slot + 1`` exactly when ``slot < length``.  The five
        classes partition the chunk, so the whole histogram is a handful of
        ``count_nonzero`` reductions and two subtractions — no per-trial code
        vector is written at all.  The mask algebra mirrors the precedence of
        :func:`repro.core.events.classify_trial` — ORIGIN beats LAST and
        PENULTIMATE, which beat INTERIOR — by excluding each stronger class
        from the weaker counts.
        """
        adversary = self.model.adversary
        n_nodes = self.model.n_nodes
        senders = generator.integers(0, n_nodes, size=n_trials, dtype=np.int32)
        lengths = self._lengths.decode(n_trials, generator)
        slots = generator.integers(0, n_nodes - 1, size=n_trials, dtype=np.int32)

        # The masks and the last-slot column are per-thread chunk buffers.
        on_path = np.less(slots, lengths, out=chunk_buffer("on_path", n_trials, bool))
        origin = np.equal(
            senders, self._compromised_node, out=chunk_buffer("origin", n_trials, bool)
        )
        hit = chunk_buffer("hit", n_trials, bool)
        if adversary is AdversaryModel.POSITION_AWARE:
            # The first hop sees the sender directly: slot 0 identifies too.
            np.equal(slots, 0, out=hit)
            hit &= on_path
            origin |= hit
        n_origin = int(np.count_nonzero(origin))
        # on_path > origin is on_path & ~origin: the observed trials.
        observed = np.greater(on_path, origin, out=on_path)
        n_observed = int(np.count_nonzero(observed))
        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            n_last = n_penultimate = 0
            n_interior = n_observed
        else:
            last_slot = np.subtract(
                lengths, 1, out=chunk_buffer("last_slot", n_trials, lengths.dtype)
            )
            np.equal(slots, last_slot, out=hit)
            hit &= observed
            n_last = int(np.count_nonzero(hit))
            last_slot -= 1
            np.equal(slots, last_slot, out=hit)
            hit &= observed
            n_penultimate = int(np.count_nonzero(hit))
            n_interior = n_observed - n_last - n_penultimate
        n_silent = n_trials - n_origin - n_observed

        counts = (
            (_ORIGIN, n_origin),
            (_SILENT, n_silent),
            (_LAST, n_last),
            (_PENULTIMATE, n_penultimate),
            (_INTERIOR, n_interior),
        )
        # Ascending code order keeps the accumulator's class order (and so
        # every downstream float summation) fixed from chunk to chunk.
        classes: ChunkClasses = {
            code: (
                count,
                self._entropy_by_code[code],
                code in self._identified_codes,
            )
            for code, count in sorted(counts)
            if count
        }
        return int(lengths.sum()), classes


class ArrangementEngine(TrialEngine):
    """The general simple-path domain: canonical observation classes.

    Any number of compromised nodes (including zero), honest receivers
    allowed, paths of any feasible length.  A trial's class is its
    observation up to relabelling, coded from its sorted compromised
    positions with array operations and priced once per class through the
    exact fragment-arrangement counts of :mod:`repro.combinatorics`
    (:class:`~repro.batch.multiclass.ClassScoreTable`).
    """

    name = "arrangement"

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
    ) -> None:
        super().__init__(model, strategy, compromised)
        if not (model.clique_routing and strategy.path_model is PathModel.SIMPLE):
            raise ConfigurationError(
                "the arrangement engine covers simple-path strategies; got "
                f"{strategy.path_model.value} paths"
            )
        _check_simple_path_support(self._distribution, model.n_nodes)
        self._lengths = InverseCdfDecoder(self._distribution)
        self._is_compromised = np.zeros(model.n_nodes, dtype=bool)
        self._is_compromised[sorted(self.compromised)] = True
        self._score_table = ClassScoreTable(
            model.with_compromised(len(self.compromised)), self._distribution
        )

    def draw_raw(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Draw one chunk: senders, lengths, and one raw slot column per compromised node.

        These are all of a chunk's draws, in their fixed order, as int32.
        Raw column ``j`` is uniform over the ``N - 1 - j`` slots still
        untaken (see :func:`~repro.batch.sampler.decode_slots`); with
        ``C == N`` there is no honest sender and no column is drawn.  The
        lengths are this thread's decode buffer
        (:meth:`~repro.batch.sampler.InverseCdfDecoder.decode`): they live
        until the next draw on the thread.
        """
        n_nodes = self.model.n_nodes
        senders = generator.integers(0, n_nodes, size=n_trials, dtype=np.int32)
        lengths = self._lengths.decode(n_trials, generator)
        raw_columns = [
            generator.integers(0, n_nodes - 1 - j, size=n_trials, dtype=np.int32)
            for j in range(self._score_table.coder.n_columns)
        ]
        return senders, lengths, raw_columns

    def draw(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`draw_raw`, its slot columns decoded to ``(C, n)`` row-sorted slots.

        The slots are this thread's decode buffer
        (:func:`~repro.batch.sampler.decode_slots`), like the lengths: they
        live until the next draw on the thread.
        """
        senders, lengths, raw_columns = self.draw_raw(n_trials, generator)
        return senders, lengths, decode_slots(raw_columns, n_trials)

    def accumulate_chunk(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[int, ChunkClasses]:
        """Draw one chunk, code its observation classes, and price each once.

        Full Bayes and position-aware chunks decode their slots and reduce
        their class codes (:class:`~repro.batch.multiclass.ClassCoder`)
        through one in-place sort, all in per-thread chunk buffers.  A
        predecessor-only chunk only asks whether a trial's smallest slot is
        on the path, and the smallest decoded slot is the smallest raw draw,
        so it skips the decode, the codes and the sort: its three classes
        take two counts.  Either way
        only the handful of distinct codes reach Python, each mapped to its
        canonical observation key and price.
        """
        senders, lengths, raw_columns = self.draw_raw(n_trials, generator)
        # The origin and on-path flags are per-thread chunk buffers, and so
        # is the intp copy of the senders that the lookup gathers with.
        indices = chunk_buffer("sender_indices", n_trials, np.intp)
        np.copyto(indices, senders)
        origin = self._is_compromised.take(
            indices, out=chunk_buffer("origin", n_trials, bool), mode="wrap"
        )
        table = self._score_table
        if self.model.adversary is AdversaryModel.PREDECESSOR_ONLY:
            # The minimum is taken in place, in the chunk's own first column;
            # with no column, slot N - 1 lies past every path.
            smallest = (
                raw_columns[0]
                if raw_columns
                else np.full(n_trials, self.model.n_nodes - 1, dtype=np.int32)
            )
            for column in raw_columns[1:]:
                np.minimum(smallest, column, out=smallest)
            on_path = np.less(
                smallest, lengths, out=chunk_buffer("on_path", n_trials, bool)
            )
            tallied = table.coder.tally_on_path(origin, on_path)
        else:
            slots = decode_slots(raw_columns, n_trials)
            codes = table.coder.encode(origin, lengths, slots)
            tallied = table.coder.tally(codes)
        classes: ChunkClasses = {}
        for code, count in zip(*tallied):
            key = table.key(code)
            score = table.score(key)
            classes[key] = (count, score.entropy_bits, score.identified)
        return int(lengths.sum()), classes


# ---------------------------------------------------------------------- #
# Engine selection                                                        #
# ---------------------------------------------------------------------- #


def select_engine(
    model: SystemModel,
    strategy: PathSelectionStrategy,
    compromised: frozenset[int] | set[int],
) -> type[TrialEngine]:
    """The engine class whose domain holds ``(model, strategy, compromised)``.

    The four domains are disjoint and together cover every configuration, so
    every configuration selects exactly one engine; the engine's constructor
    then rejects what its domain cannot estimate (an infeasible length law,
    compromised identities outside ``[0, N)``).
    """
    # Both modules import TrialEngine from this one, so they load here.
    from repro.batch.cycleengine import CycleBatchEngine
    from repro.batch.topoengine import TopologyEngine

    if not model.clique_routing:
        return TopologyEngine
    if strategy.path_model is PathModel.CYCLE_ALLOWED:
        return CycleBatchEngine
    if len(compromised) == 1 and model.receiver_compromised:
        return FiveClassEngine
    return ArrangementEngine


# ---------------------------------------------------------------------- #
# The process-wide engine cache                                           #
# ---------------------------------------------------------------------- #

#: Engines :func:`shared_engine` keeps per process, least recently used
#: evicted first.  The bound is set by retained memory, measured with
#: tracemalloc after one 20 000-trial run per engine: a clique engine keeps
#: 0.04-0.12 MiB (its prices and length decoder), so 32 of them stay under
#: 4 MiB.  A topology engine keeps its whole enumerated path law: 0.95 MiB for
#: ``grid:4x5`` at U(1,6), 6.2 MiB for ``grid:5x5`` at U(1,8) and 48.8 MiB for
#: ``regular:4:0`` at N = 30, U(1,8).  The worst case is therefore 32 giant
#: topology engines, about 1.5 GiB at the last size; bounding giant
#: topologies before they are enumerated is the topology engine's concern.
ENGINE_CACHE_SIZE = 32

_ENGINE_CACHE: "OrderedDict[tuple, TrialEngine]" = OrderedDict()
_ENGINE_CACHE_LOCK = threading.Lock()


def shared_engine(
    model: SystemModel,
    strategy: PathSelectionStrategy,
    compromised: frozenset[int],
) -> tuple[TrialEngine, bool]:
    """This process's engine for a configuration, and whether it was reused.

    The key holds everything an engine is a function of: the model, the
    path model, the compromised set, and the effective distribution's name
    and exact pmf.  The engine class is a function of the model, the path
    model and the compromised set (see :func:`select_engine`), so it needs no
    place of its own.  The key never holds the strategy or the distribution
    object, whose equality tolerates pmf differences up to ``1e-12``: two
    such pmfs must not share prices.  The name is in the key because an
    engine's distribution names the reports built from it.

    A miss selects the engine class and builds the engine inside an
    ``engine.construct`` span, outside the lock, so a slow build never blocks
    lookups of other configurations.  Two threads that miss on one key at
    once both build; engines are deterministic, so either copy serves, and
    the first one stored is kept.
    """
    distribution = strategy.effective_distribution(model.n_nodes)
    key = (
        model,
        strategy.path_model,
        compromised,
        distribution.name,
        tuple(distribution.items()),
    )
    with _ENGINE_CACHE_LOCK:
        engine = _ENGINE_CACHE.get(key)
        if engine is not None:
            _ENGINE_CACHE.move_to_end(key)
            return engine, True
    factory = select_engine(model, strategy, compromised)
    logger.debug(
        "building engine %r for %s, C=%d, %s paths",
        factory.name,
        model.describe(),
        len(compromised),
        strategy.path_model.value,
    )
    with trace_span("engine.construct", engine=factory.name):
        built = factory(model=model, strategy=strategy, compromised=compromised)
    with _ENGINE_CACHE_LOCK:
        engine = _ENGINE_CACHE.setdefault(key, built)
        _ENGINE_CACHE.move_to_end(key)
        while len(_ENGINE_CACHE) > ENGINE_CACHE_SIZE:
            _ENGINE_CACHE.popitem(last=False)
    return engine, False


def clear_engine_cache() -> None:
    """Drop every engine :func:`shared_engine` keeps in this process."""
    with _ENGINE_CACHE_LOCK:
        _ENGINE_CACHE.clear()
