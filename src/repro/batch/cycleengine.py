"""The vectorized trial engine for cycle-allowed path strategies.

This is the cycle-path member of the :class:`~repro.batch.engine.TrialEngine`
family (beside the five-class and arrangement simple-path engines): it
brings Crowds-style protocols onto the batch fast path for *any* number of
compromised nodes.  Each chunk runs one kernel, :meth:`CycleBatchEngine.accumulate_chunk`:

1. **draw** — the simple-path symmetry reduction does not apply here: the
   adversary's observation class depends on *coincidences* between hop
   identities (whether the node a compromised node forwarded to later shows
   up as another observed predecessor), so the kernel draws the hop
   sequences themselves, as Markov-style transitions.  Senders are uniform
   over the ``N`` nodes and lengths come from the inverse-CDF decoder.  The
   chunk is then sorted by length (stable, longest first), so the trials
   still walking at level ``h`` — the *live* cells, level ``h`` below the
   trial's length — form a prefix.  Only those hops are drawn and stored:
   the **packed hop store** is one int32 array of ``sum(lengths)`` cells,
   level by level, and level ``h`` starts at ``offsets[h]`` of
   :func:`~repro.batch.cycleclassify.level_offsets`, a running sum of the
   live counts.  Level ``h`` takes one raw uniform draw over ``[0, N-1)``
   per walking trial, in that sorted order, so the generator consumption is
   a fixed function of the sampled lengths.  Each raw value decodes as "the
   raw value, skipping the node that currently holds the message" —
   exactly the uniform-over-``N-1`` no-self-forwarding rule of
   :class:`~repro.routing.selection.CyclePathSelector`;
2. **classify** — histogram every trial into its cycle observation class
   (:func:`~repro.batch.cycleclassify.classify_cycle_arrays`, which reads
   trial ``i``'s hop at level ``h`` from cell ``offsets[h] + i`` of the
   store), so its cost follows the hops the trials walk rather than the
   longest path.  A full-Bayes key orders its gaps canonically, so walks
   with the same gap counts share one class;
3. **price** — score each *distinct* class exactly once with the cycle-aware
   exact Bayesian engine (:class:`CycleScoreTable` over
   :class:`repro.adversary.inference.BayesianPathInference`).

Because the prices are exact per-class entropies, the per-trial entropy
samples follow exactly the same law as the hop-by-hop event engine's — the
class key provably determines the posterior entropy (see
:mod:`repro.adversary.inference`) — at a large multiple of its throughput:
the event engine runs one exact inference per *trial*, this engine one per
*class*, and the number of distinct classes is tiny.

Scoring goes through a **canonical representative**: one concrete trial
built from the class key alone (:meth:`CycleScoreTable.representative`).
Equal keys therefore price through bit-identical arithmetic, which keeps
shard merges exact and cached service replays bit-stable no matter which
concrete trial or seed first exhibited a class.

Any ``C`` runs on the one engine, :class:`CycleBatchEngine` (``"cycle"``):
``C = 0`` degenerates to the silent class under every adversary, and
``C > 1`` is classified by multi-node walk-pattern keys and priced by the
honest-subgraph walk counts of :mod:`repro.combinatorics.walks`.

Trials are processed in chunks of :data:`repro.batch.engine.CHUNK_TRIALS`,
so the hops of a multi-million-trial run never materialise at once, and a
chunk holds only the hops its trials walk: at ``N = 100`` and
``p_forward = 0.97`` one 65 536-trial chunk stores about 2.2 million hops
(8.7 MB), where a ``(width, n_trials)`` matrix would span 190 MiB.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.batch.cycleclassify import (
    ADJACENT,
    ORIGIN_KEY,
    PATH_KEY,
    SILENT_KEY,
    classify_cycle_arrays,
    level_offsets,
)
from repro.batch.engine import ChunkClasses, TrialEngine
from repro.batch.sampler import InverseCdfDecoder, chunk_buffer
from repro.core.model import PathModel, SystemModel
from repro.core.results import IDENTIFIED_THRESHOLD
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import trace_span

__all__ = ["CycleScoreTable", "CycleBatchEngine"]


class CycleScoreTable:
    """Lazily scored ``class key -> (entropy, identified)`` table.

    Unlike the simple-path tables, cycle classes are discovered from the data
    (how often compromised nodes recur, which anchors coincide), so the
    table prices classes on first sight and memoises: build one canonical
    representative trial from the class key alone (:meth:`representative`),
    hand its observation to the exact cycle inference engine, and reuse the
    score for every later trial of the class.  A class's floats are thus a
    pure function of its key, whichever trial first reached it.  Any number
    of compromised nodes is supported; the inference engine counts honest
    segments in the sub-clique avoiding the whole compromised set.  With
    telemetry active, each miss runs inside an ``engine.price`` span, counts
    into ``classes_priced_total`` and times into ``class_price_seconds``,
    all labelled ``engine=cycle``.
    """

    def __init__(
        self,
        model: SystemModel,
        distribution: PathLengthDistribution,
        compromised: frozenset[int],
    ) -> None:
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

    def score(self, key: tuple) -> tuple[float, bool]:
        """Exact ``(entropy_bits, identified)`` of the class of ``key``."""
        cached = self._scores.get(key)
        if cached is not None:
            return cached
        telemetry = get_registry()
        with trace_span("engine.price", telemetry, engine="cycle"):
            started = telemetry.clock() if telemetry.enabled else 0.0
            sender, path = self.representative(key)
            observation = observation_from_path(
                sender,
                path,
                self._compromised,
                receiver_compromised=self._model.receiver_compromised,
            )
            posterior = self._inference.posterior(observation)
            cached = (
                posterior.entropy_bits,
                posterior.max_probability >= IDENTIFIED_THRESHOLD,
            )
            if telemetry.enabled:
                telemetry.counter("classes_priced_total", engine="cycle").inc()
                telemetry.histogram(
                    "class_price_seconds", engine="cycle"
                ).observe(telemetry.clock() - started)
        self._scores[key] = cached
        return cached

    def representative(self, key: tuple) -> tuple[int, tuple[int, ...]]:
        """One ``(sender, path)`` trial of the class, built from ``key`` alone.

        The sender is the first honest node and the first compromised visit
        sits on hop 1; honest hops cycle through the honest nodes (so two
        consecutive ones always differ), and adjacent visits alternate
        between the first two compromised nodes.
        """
        compromised = sorted(self._compromised)
        honest = [
            node for node in range(self._model.n_nodes) if node not in self._compromised
        ]
        if key == ORIGIN_KEY:
            return compromised[0], ()
        sender = honest[0]
        if key == SILENT_KEY:
            return sender, ()
        if key == PATH_KEY:
            return sender, (compromised[0],)
        fresh = (honest[index % len(honest)] for index in itertools.count(1))
        if key[0] == "pos":
            return sender, (*(next(fresh) for _ in range(key[1] - 1)), compromised[0])
        _, _, gaps, last = key
        path = [compromised[0]]
        for gap in gaps:
            if gap == ADJACENT:
                path.append(compromised[1] if path[-1] == compromised[0] else compromised[0])
                continue
            # A bridged gap shares one honest node; an open one needs two.
            path.extend(next(fresh) for _ in range(1 if gap else 2))
            path.append(compromised[0])
        if last != "recv":
            path.extend(next(fresh) for _ in range(2 if last == "ne" else 1))
        return sender, tuple(path)


def longest_first_order(lengths: np.ndarray, width: int) -> np.ndarray:
    """Trial indices by decreasing length, ties in trial order.

    The order of a stable argsort of ``width - lengths``, from one in-place
    sort: each trial's key packs ``width - length`` above its index, so the
    sorted keys' low bits are the order.  Keys are uint32 while
    ``(width + 1) << index bits`` fits in 32 bits, uint64 beyond.  The keys
    are a fresh array per chunk, not a per-thread buffer, so they do not
    stay resident between chunks.
    """
    n_trials = len(lengths)
    shift = max(n_trials - 1, 1).bit_length()
    dtype = np.uint32 if (width + 1) << shift <= 1 << 32 else np.uint64
    keys = np.subtract(width, lengths, dtype=dtype, casting="unsafe")
    keys <<= shift
    keys |= np.arange(n_trials, dtype=dtype)
    keys.sort()
    keys &= (1 << shift) - 1
    return keys


class CycleBatchEngine(TrialEngine):
    """Columnar Monte-Carlo kernel for one cycle-allowed strategy, any ``C``.

    Selected by :func:`~repro.batch.engine.select_engine` when the
    strategy's path model is :attr:`~repro.core.model.PathModel.CYCLE_ALLOWED`
    on a clique; it produces the same
    :class:`~repro.batch.engine.BatchAccumulator` currency as the simple-path
    engines, so sharding, adaptive scheduling, and the service cache compose
    with it unchanged.
    """

    name = "cycle"

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
    ) -> None:
        super().__init__(model, strategy, compromised)
        if strategy.path_model is not PathModel.CYCLE_ALLOWED:
            raise ConfigurationError(
                f"{type(self).__name__} requires a cycle-allowed strategy, got "
                f"{strategy.path_model!r}"
            )
        if not model.clique_routing:
            raise ConfigurationError(
                f"{type(self).__name__} walks the clique; topology "
                f"{model.topology.spec} runs on the topology engine"
            )
        self._lengths = InverseCdfDecoder(self._distribution)
        self._score_table = CycleScoreTable(
            model=model.with_compromised(len(self.compromised)),
            distribution=self._distribution,
            compromised=self.compromised,
        )

    def accumulate_chunk(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[int, ChunkClasses]:
        """Draw, walk, classify, and price one chunk of cycle-path trials.

        Only live cells (level ``h`` below the trial's length) are drawn,
        into the packed hop store, and classified; each new class is priced
        from its key alone.
        """
        n_nodes = self.model.n_nodes
        senders = generator.integers(0, n_nodes, size=n_trials, dtype=np.int32)
        lengths = self._lengths.decode(n_trials, generator)
        width = int(lengths.max())

        # Longest paths first (stable), so the trials still walking at level
        # h are a prefix of the chunk.  This order is part of the draw
        # contract.  The sorted columns are per-thread chunk buffers.
        order = longest_first_order(lengths, width)
        senders = senders.take(
            order, out=chunk_buffer("cycle_senders", n_trials, senders.dtype), mode="wrap"
        )
        lengths = lengths.take(
            order, out=chunk_buffer("cycle_lengths", n_trials, lengths.dtype), mode="wrap"
        )
        offsets = level_offsets(lengths)
        # Level h's draws are the next offsets[h + 1] - offsets[h] values of
        # one bulk draw: numpy's 32-bit bounded draws carry no state between
        # values but the generator's, so this equals one draw per level.
        hops = generator.integers(
            0, n_nodes - 1, size=int(offsets[-1]), dtype=np.int32
        )
        current = senders
        for start, stop in itertools.pairwise(offsets.tolist()):
            # The raw value r in [0, N-1) decodes to "r, skipping the
            # current holder".
            step = hops[start:stop]
            step += step >= current[: stop - start]
            current = step

        keyed = classify_cycle_arrays(
            senders,
            lengths,
            hops,
            self.compromised,
            adversary=self.model.adversary,
            receiver_compromised=self.model.receiver_compromised,
        )
        classes: ChunkClasses = {}
        for key, count in keyed.items():
            entropy, identified = self._score_table.score(key)
            classes[key] = (count, entropy, identified)
        return int(lengths.sum()), classes
