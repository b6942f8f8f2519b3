"""Tests for the engines' chunk kernels against scalar oracles.

Every batch engine has exactly one kernel, ``accumulate_chunk``: bulk draws,
an array-op classification, and exact per-class prices.  The load-bearing
contract is that the kernel is an exact vectorisation of the scalar rules it
replaces.  Each oracle here replays the kernel's draws from an identically
seeded generator — through ``PathLengthDistribution.sample_batch`` instead of
the table decoder — and classifies them trial by trial:

* five-class: :func:`repro.core.events.classify_trial` on the decoded
  ``(sender, length, position)`` of every trial;
* arrangement: a test-local insertion walk that turns raw slot draws into
  compromised positions one trial at a time, then the observation key of a
  concrete path with those positions, through
  :func:`repro.adversary.observation.observation_from_path`, up to
  relabelling (:func:`repro.batch.multiclass.canonical_key`);
* cycle: a test-local hop-by-hop walk, keyed by
  :func:`repro.batch.cycleclassify.cycle_trial_key` (the array classifier's
  key counts are checked row by row in ``tests/test_cycle.py``).

The oracle must consume the generator exactly as the kernel does and produce
the same class counts and length sum, for single chunks and for whole runs
at every ``(seed, chunk size)``, the chunk size patched through
``repro.batch.engine.CHUNK_TRIALS``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.adversary.inference import observation_class_key
from repro.adversary.observation import observation_from_path
from repro.batch import InverseCdfDecoder, ShardedBackend
from repro.batch import engine as engine_module
from repro.batch.cycleclassify import cycle_trial_key
from repro.batch.engine import BatchAccumulator, TrialEngine, select_engine
from repro.batch.multiclass import ClassCoder, canonical_key
from repro.batch.sampler import chunk_buffer, decode_slots
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.events import EVENT_ORDER, EventClass, classify_trial, event_code
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions import (
    BinomialLength,
    GeometricLength,
    TwoPointLength,
    UniformLength,
    ZipfLength,
)
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry import activate
from repro.utils.rng import ensure_rng

N_NODES = 9


def strategy_for(path_model: PathModel) -> PathSelectionStrategy:
    return PathSelectionStrategy(
        "G(0.4)",
        GeometricLength(0.4, max_length=6),
        path_model=path_model,
    )


def build_engine(
    path_model: PathModel,
    compromised: frozenset[int],
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
    receiver_compromised: bool = True,
) -> TrialEngine:
    model = SystemModel(
        n_nodes=N_NODES,
        n_compromised=len(compromised),
        adversary=adversary,
        path_model=path_model,
        receiver_compromised=receiver_compromised,
    )
    strategy = strategy_for(path_model)
    factory = select_engine(model, strategy, compromised)
    return factory(model, strategy, compromised)


# ---------------------------------------------------------------------- #
# Scalar oracles: replay the kernel's draws, classify trial by trial      #
# ---------------------------------------------------------------------- #


def replay_lengths(engine: TrialEngine, n_trials: int, generator) -> list[int]:
    return list(engine.distribution.sample_batch(n_trials, generator))


def five_class_oracle(engine, n_trials, generator):
    n_nodes = engine.model.n_nodes
    senders = generator.integers(0, n_nodes, size=n_trials).tolist()
    lengths = replay_lengths(engine, n_trials, generator)
    slots = generator.integers(0, n_nodes - 1, size=n_trials).tolist()
    counts: Counter = Counter()
    for sender, length, slot in zip(senders, lengths, slots):
        event = classify_trial(
            sender_compromised=sender in engine.compromised,
            length=length,
            position=slot + 1 if slot < length else None,
            adversary=engine.model.adversary,
        )
        counts[event_code(event)] += 1
    return sum(lengths), counts


def insertion_walk(raws: list[int]) -> list[int]:
    """Place each compromised node on the ``raw``-th slot still untaken."""
    taken: list[int] = []
    for raw in raws:
        slot = raw
        for occupied in sorted(taken):
            if slot >= occupied:
                slot += 1
        taken.append(slot)
    return taken


def canonical_observation_key(engine, sender, path) -> tuple:
    """The trial's observation key up to relabelling."""
    observation = observation_from_path(
        sender,
        path,
        engine.compromised,
        receiver_compromised=engine.model.receiver_compromised,
    )
    return canonical_key(
        observation_class_key(observation, engine.model.adversary),
        engine.compromised,
    )


def arrangement_trial(engine, sender, length, slots) -> list[int]:
    """A concrete path with compromised node ``j`` on slot ``slots[j]``."""
    compromised = sorted(engine.compromised)
    placed = {slot: compromised[j] for j, slot in enumerate(slots) if slot < length}
    honest = iter(
        node
        for node in reversed(range(engine.model.n_nodes))
        if node != sender and node not in engine.compromised
    )
    return [placed[slot] if slot in placed else next(honest) for slot in range(length)]


def arrangement_oracle(engine, n_trials, generator):
    n_nodes = engine.model.n_nodes
    n_compromised = len(engine.compromised)
    n_columns = n_compromised if n_compromised < n_nodes else 0
    senders = generator.integers(0, n_nodes, size=n_trials).tolist()
    lengths = replay_lengths(engine, n_trials, generator)
    columns = [
        generator.integers(0, n_nodes - 1 - j, size=n_trials).tolist()
        for j in range(n_columns)
    ]
    counts: Counter = Counter()
    for index, (sender, length) in enumerate(zip(senders, lengths)):
        slots = insertion_walk([column[index] for column in columns])
        path = arrangement_trial(engine, sender, length, slots)
        counts[canonical_observation_key(engine, sender, path)] += 1
    return sum(lengths), counts


def walk_cycle_trials(engine, n_trials, generator):
    """Replay the cycle kernel's draws as per-trial ``(sender, hops, length)``.

    Per hop level, one draw per trial still walking, longest trials first
    (a stable sort, so equal lengths keep their draw order).
    """
    n_nodes = engine.model.n_nodes
    senders = generator.integers(0, n_nodes, size=n_trials).tolist()
    lengths = replay_lengths(engine, n_trials, generator)
    order = sorted(range(n_trials), key=lambda index: -lengths[index])
    hops = [[] for _ in range(n_trials)]
    current = list(senders)
    for level in range(max(lengths)):
        walking = [index for index in order if lengths[index] > level]
        draws = generator.integers(0, n_nodes - 1, size=len(walking)).tolist()
        for index, step in zip(walking, draws):
            if step >= current[index]:
                step += 1  # never forward to yourself
            hops[index].append(step)
            current[index] = step
    return list(zip(senders, hops, lengths))


def cycle_key(engine, sender, hops, length):
    return cycle_trial_key(
        sender,
        hops,
        length,
        engine.compromised,
        adversary=engine.model.adversary,
        receiver_compromised=engine.model.receiver_compromised,
    )


def cycle_oracle(engine, n_trials, generator):
    trials = walk_cycle_trials(engine, n_trials, generator)
    counts = Counter(cycle_key(engine, *trial) for trial in trials)
    return sum(length for _, _, length in trials), counts


ORACLES = {
    "five-class": five_class_oracle,
    "arrangement": arrangement_oracle,
    "cycle": cycle_oracle,
}

#: Every clique engine domain, as builder args.
DOMAINS = [
    pytest.param(PathModel.SIMPLE, frozenset({2}), AdversaryModel.FULL_BAYES, True, id="five-class"),
    pytest.param(PathModel.SIMPLE, frozenset({2}), AdversaryModel.POSITION_AWARE, True, id="five-class-pos"),
    pytest.param(PathModel.SIMPLE, frozenset({2}), AdversaryModel.PREDECESSOR_ONLY, True, id="five-class-pred"),
    pytest.param(PathModel.SIMPLE, frozenset(), AdversaryModel.FULL_BAYES, True, id="arrangement-c0"),
    pytest.param(PathModel.SIMPLE, frozenset({1, 4}), AdversaryModel.FULL_BAYES, True, id="arrangement-c2"),
    pytest.param(PathModel.SIMPLE, frozenset({1, 4}), AdversaryModel.FULL_BAYES, False, id="arrangement-honest"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.POSITION_AWARE, True, id="arrangement-pos"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.PREDECESSOR_ONLY, False, id="arrangement-pred"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.FULL_BAYES, False, id="arrangement-honest-c3"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 2, 3, 5, 7}), AdversaryModel.FULL_BAYES, False, id="arrangement-honest-c5"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.POSITION_AWARE, False, id="arrangement-pos-honest"),
    pytest.param(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.PREDECESSOR_ONLY, True, id="arrangement-pred-recv"),
    pytest.param(PathModel.SIMPLE, frozenset(), AdversaryModel.PREDECESSOR_ONLY, True, id="arrangement-pred-c0"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({2}), AdversaryModel.FULL_BAYES, True, id="cycle"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({2}), AdversaryModel.POSITION_AWARE, True, id="cycle-pos"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({2}), AdversaryModel.FULL_BAYES, False, id="cycle-honest"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({1, 4}), AdversaryModel.FULL_BAYES, True, id="cycle-multi"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({2}), AdversaryModel.PREDECESSOR_ONLY, True, id="cycle-pred"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset(), AdversaryModel.FULL_BAYES, True, id="cycle-c0"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({1, 4}), AdversaryModel.POSITION_AWARE, True, id="cycle-multi-pos"),
    pytest.param(PathModel.CYCLE_ALLOWED, frozenset({1, 4}), AdversaryModel.FULL_BAYES, False, id="cycle-multi-honest"),
]


def counts_of(classes) -> dict:
    return {key: count for key, (count, _, _) in classes.items()}


class TestKernelsMatchScalarOracles:
    @pytest.mark.parametrize("path_model, compromised, adversary, receiver", DOMAINS)
    @pytest.mark.parametrize("seed", [0, 91])
    def test_chunk_counts_and_draws_match_the_oracle(
        self, path_model, compromised, adversary, receiver, seed
    ):
        """One kernel chunk == the scalar replay, including generator state."""
        engine = build_engine(path_model, compromised, adversary, receiver)
        kernel_gen = np.random.default_rng(seed)
        oracle_gen = np.random.default_rng(seed)
        length_sum, classes = engine.accumulate_chunk(4_097, kernel_gen)
        oracle_sum, oracle_counts = ORACLES[engine.name](engine, 4_097, oracle_gen)
        assert length_sum == oracle_sum
        assert counts_of(classes) == dict(oracle_counts)
        assert kernel_gen.bit_generator.state == oracle_gen.bit_generator.state

    @pytest.mark.parametrize("path_model, compromised, adversary, receiver", DOMAINS)
    @pytest.mark.parametrize("seed, chunk", [(3, None), (3, 1_000), (17, 127)])
    def test_runs_match_the_oracle_per_seed_and_chunk(
        self, path_model, compromised, adversary, receiver, seed, chunk, monkeypatch
    ):
        """Whole runs fold the same chunks the oracle replays, for every chunking."""
        if chunk is not None:
            monkeypatch.setattr(engine_module, "CHUNK_TRIALS", chunk)
        chunk = engine_module.CHUNK_TRIALS
        engine = build_engine(path_model, compromised, adversary, receiver)
        accumulator = engine.run_accumulate(5_003, rng=seed)

        generator = ensure_rng(seed)
        oracle_sum = 0
        oracle_counts: Counter = Counter()
        remaining = 5_003
        while remaining:
            block = min(chunk, remaining)
            remaining -= block
            block_sum, block_counts = ORACLES[engine.name](engine, block, generator)
            oracle_sum += block_sum
            oracle_counts.update(block_counts)
        assert accumulator.length_sum == oracle_sum
        assert counts_of(accumulator.classes) == dict(oracle_counts)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_five_class_prices_are_the_closed_form_events(self, adversary):
        engine = build_engine(PathModel.SIMPLE, frozenset({2}), adversary)
        analysis = AnonymityAnalyzer(engine.model).analyze(engine.distribution)
        _, classes = engine.accumulate_chunk(20_000, np.random.default_rng(4))
        for code, (_, entropy, _) in classes.items():
            assert entropy == analysis.event(EVENT_ORDER[code]).entropy_bits

    @pytest.mark.parametrize("n_compromised", [0, 1, 2, 3, 5, 8])
    def test_slot_decode_matches_the_insertion_walk(self, n_compromised):
        generator = np.random.default_rng(n_compromised)
        n_trials = 2_000
        columns = [
            generator.integers(0, N_NODES - 1 - j, size=n_trials)
            for j in range(n_compromised)
        ]
        slots = decode_slots(columns, n_trials)
        assert slots.shape == (n_compromised, n_trials)
        for index in range(n_trials):
            raws = [int(column[index]) for column in columns]
            assert slots[:, index].tolist() == sorted(insertion_walk(raws))

    @pytest.mark.parametrize(
        "n_nodes, n_compromised",
        [
            (n_nodes, n_compromised)
            for n_nodes in (3, 4, 9, 100, 1_000)
            for n_compromised in range(1, min(n_nodes - 1, 12) + 1)
        ],
    )
    def test_smallest_slot_is_the_smallest_raw_draw(self, n_nodes, n_compromised):
        """The identity the predecessor-only kernel rests on: it never decodes."""
        generator = np.random.default_rng([n_nodes, n_compromised])
        columns = [
            generator.integers(0, n_nodes - 1 - j, size=2_000)
            for j in range(n_compromised)
        ]
        smallest = decode_slots(columns, 2_000)[0]
        assert np.array_equal(smallest, np.minimum.reduce(columns))


class ScriptedGenerator:
    """Hands a kernel fixed draws, in the order it asks for them.

    ``integers`` calls are answered from ``columns`` in turn, in the asked
    ``dtype``; ``random`` answers with the midpoint of each wanted length's
    CDF interval, which the length decoder maps back to exactly that
    length, returned or written into ``out``.
    """

    def __init__(self, distribution, lengths, *columns):
        support, cumulative = distribution.cdf_table()
        lower = dict(zip(support, (0.0, *cumulative[:-1])))
        upper = dict(zip(support, cumulative))
        self._uniforms = np.array([(lower[n] + upper[n]) / 2 for n in lengths])
        self._columns = [np.array(column, dtype=np.int64) for column in columns]

    def integers(self, low, high, size, dtype=np.int64):
        column = self._columns.pop(0)
        assert column.shape == (size,)
        assert low <= column.min() and column.max() < high
        return column.astype(dtype)

    def random(self, size=None, out=None):
        if out is None:
            assert self._uniforms.shape == (size,)
            return self._uniforms
        assert size is None and out.shape == self._uniforms.shape
        out[...] = self._uniforms
        return out


class TestFiveClassKernelLadder:
    """Hand-built trials through the five-class kernel's mask algebra.

    The engine's compromised node is 2 and the trial's compromised hop sits
    at 1-based position ``slot + 1``, on the path when ``slot < length``.
    """

    def run(self, adversary, senders, lengths, slots):
        engine = build_engine(PathModel.SIMPLE, frozenset({2}), adversary)
        generator = ScriptedGenerator(engine.distribution, lengths, senders, slots)
        length_sum, classes = engine.accumulate_chunk(len(senders), generator)
        assert length_sum == sum(lengths)
        return {EVENT_ORDER[code]: count for code, count in counts_of(classes).items()}

    def test_every_branch_of_the_ladder_is_reachable(self):
        # A compromised sender, an off-path slot, the last slot, the
        # penultimate slot, and an interior slot: one trial per class.
        counts = self.run(
            AdversaryModel.FULL_BAYES,
            senders=[2, 0, 0, 0, 0],
            lengths=[3, 1, 3, 3, 4],
            slots=[0, 2, 2, 1, 0],
        )
        assert counts == {event: 1 for event in EventClass}

    def test_position_aware_slot_zero_identifies_the_origin(self):
        counts = self.run(
            AdversaryModel.POSITION_AWARE,
            senders=[0, 0],
            lengths=[4, 4],
            slots=[0, 1],
        )
        assert counts == {EventClass.ORIGIN: 1, EventClass.INTERIOR: 1}

    def test_predecessor_only_collapses_on_path_trials_to_interior(self):
        counts = self.run(
            AdversaryModel.PREDECESSOR_ONLY,
            senders=[0, 0, 0, 0],
            lengths=[4, 4, 4, 1],
            slots=[0, 2, 3, 1],
        )
        assert counts == {EventClass.INTERIOR: 3, EventClass.SILENT: 1}

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_a_compromised_sender_outranks_every_position(self, adversary):
        """ORIGIN beats LAST, PENULTIMATE, INTERIOR and SILENT alike."""
        counts = self.run(
            adversary,
            senders=[2, 2, 2, 2],
            lengths=[4, 4, 4, 1],
            slots=[3, 2, 1, 5],
        )
        assert counts == {EventClass.ORIGIN: 4}


class TestClassPricesDependOnTheKeyAlone:
    def test_cycle_key_fb_1_recv_prices_to_one_float(self):
        """Two different first trials of one cycle class price it identically.

        The class ``('fb', 1, (), 'recv')`` used to take the floats of the
        first trial that reached it: 1.850279539781306 bits when the
        compromised node sat on hop 1, 1.8502795397813059 when on hop 4.
        """
        key = ("fb", 1, (), "recv")
        prices = []
        # Sender 3 reaches the receiver through node 0 on hop 1, or through
        # nodes 5, 6, 7 and then 0 (a raw draw skips the current holder).
        # The kernel draws every live hop in one bulk column.
        for lengths, hops in (([1], [0]), ([4], [4, 5, 6, 0])):
            engine = build_engine(PathModel.CYCLE_ALLOWED, frozenset({0}))
            generator = ScriptedGenerator(engine.distribution, lengths, [3], hops)
            _, classes = engine.accumulate_chunk(1, generator)
            assert list(classes) == [key]
            prices.append(classes[key][1])
        assert prices[0] == prices[1]


class TestKernelDeterminism:
    @pytest.mark.parametrize("path_model, compromised, adversary, receiver", DOMAINS)
    def test_runs_at_any_seed_and_chunking_merge(
        self, path_model, compromised, adversary, receiver, monkeypatch
    ):
        """Accumulators cut at different seeds and chunk sizes sum cleanly.

        Every engine prices a class from its key alone, so two fresh engines
        that reach a shared class through different trials still agree on
        its floats exactly.
        """
        first = build_engine(path_model, compromised, adversary, receiver)
        second = build_engine(path_model, compromised, adversary, receiver)
        one = first.run_accumulate(5_003, rng=3)
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 127)
        two = second.run_accumulate(5_003, rng=17)
        shared = one.classes.keys() & two.classes.keys()
        # With no compromised node every trial is silent: one class.
        assert len(shared) > 1 if compromised else len(shared) == 1
        for key in shared:
            assert one.classes[key][1:] == two.classes[key][1:]
        merged = BatchAccumulator.merge([one, two])
        assert merged.n_trials == 10_006
        assert merged.length_sum == one.length_sum + two.length_sum
        assert counts_of(merged.classes) == dict(
            Counter(counts_of(one.classes)) + Counter(counts_of(two.classes))
        )
    @pytest.mark.parametrize("seed", [11, 29])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_determinism(self, seed, shards):
        """The kernels keep the ``(seed, shards)`` bit-stability contract."""
        model = SystemModel(n_nodes=N_NODES, n_compromised=1)
        strategy = strategy_for(PathModel.SIMPLE)
        backend = ShardedBackend(workers=1, shards=shards)
        first = backend.estimate(model, strategy, n_trials=6_000, rng=seed)
        second = backend.estimate(model, strategy, n_trials=6_000, rng=seed)
        assert first.estimate.mean == second.estimate.mean
        assert first.estimate.std_error == second.estimate.std_error
        assert first.identification_rate == second.identification_rate

    def test_fixed_block_runs_stay_deterministic(self):
        from repro.service.adaptive import AdaptiveScheduler

        model = SystemModel(n_nodes=N_NODES, n_compromised=1)
        scheduler = AdaptiveScheduler(
            backend="batch", precision=None, block_size=4_000, max_trials=8_000
        )
        first = scheduler.run(model, strategy_for(PathModel.SIMPLE), rng=3)
        second = scheduler.run(model, strategy_for(PathModel.SIMPLE), rng=3)
        assert first.report.estimate == second.report.estimate

    def test_fixed_chunking_is_independent_of_the_clock(self, monkeypatch):
        """A fixed-chunk accumulator's bits never depend on telemetry timing."""
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 1_024)
        one = build_engine(PathModel.SIMPLE, frozenset({2}))
        two = build_engine(PathModel.SIMPLE, frozenset({2}))
        readings = iter(float(tick) ** 2 for tick in range(1_000))
        with activate(clock=lambda: next(readings)):
            timed = one.run_accumulate(10_000, rng=9)
        untimed = two.run_accumulate(10_000, rng=9)
        assert timed == untimed


class TestInverseCdfDecoder:
    @pytest.mark.parametrize(
        "distribution",
        [
            GeometricLength(0.25, max_length=40),
            GeometricLength(0.9, max_length=5),
            UniformLength(1, 3),
            UniformLength(4, 4),
            # A gapped support, a wide one, and length 0 with sub-cell tails.
            TwoPointLength(2, 9, 0.3),
            ZipfLength(1.5, 1, 30),
            BinomialLength(12, 0.3, minimum=0),
        ],
        ids=lambda d: d.name,
    )
    def test_bit_identical_to_sample_batch(self, distribution):
        """Same lengths and same generator consumption as ``sample_batch``."""
        fast_gen = np.random.default_rng(123)
        slow_gen = np.random.default_rng(123)
        decoder = InverseCdfDecoder(distribution)
        fast = decoder.decode(40_000, fast_gen)
        slow = np.frombuffer(
            distribution.sample_batch(40_000, slow_gen), dtype=np.int64
        )
        assert np.array_equal(fast, slow)
        assert fast_gen.bit_generator.state == slow_gen.bit_generator.state

    def test_unresolved_buckets_exist_and_fall_back(self):
        """The LUT leaves boundary cells to searchsorted (and they agree)."""
        decoder = InverseCdfDecoder(GeometricLength(0.25, max_length=40))
        assert int((decoder._table == decoder._sentinel).sum()) > 0


#: Bounded ranges the int32 draw contract is checked over: degenerate, tiny,
#: the paper's N and N - 1, one past a power of two, and the widest int32.
DRAW_RANGES = (1, 2, 99, 100, 2**20 + 3, 2**31 - 1)


class TestBoundedDrawContract:
    """The numpy behaviour the clique kernels' int32 draws rest on.

    Every bounded integer draw of the clique engines is int32, and the cycle
    kernel draws all hop levels of a chunk in one call.  Both are bit-neutral
    only while numpy's bounded-integer path keeps these properties, so a
    numpy upgrade that breaks one fails here, not in a golden digest.
    """

    @pytest.mark.parametrize("high", DRAW_RANGES)
    def test_int32_draws_equal_int64_draws(self, high):
        wide = np.random.default_rng(5)
        narrow = np.random.default_rng(5)
        for size in (0, 1, 7, 65_536, 3):
            assert np.array_equal(
                wide.integers(0, high, size=size),
                narrow.integers(0, high, size=size, dtype=np.int32),
            )
            assert wide.bit_generator.state == narrow.bit_generator.state
            assert np.array_equal(wide.random(5), narrow.random(5))

    @pytest.mark.parametrize("high", DRAW_RANGES)
    def test_one_bulk_draw_equals_its_parts(self, high):
        whole = np.random.default_rng(11)
        parts = np.random.default_rng(11)
        for generator in (whole, parts):
            # One 32-bit draw leaves half of a 64-bit output cached.
            generator.random(3)
            generator.integers(0, 5, size=1, dtype=np.int32)
        sizes = (65_536, 40_000, 7, 0, 1)
        split = [parts.integers(0, high, size=size, dtype=np.int32) for size in sizes]
        bulk = whole.integers(0, high, size=sum(sizes), dtype=np.int32)
        assert np.array_equal(bulk, np.concatenate(split))
        assert whole.bit_generator.state == parts.bit_generator.state
        assert np.array_equal(whole.random(4), parts.random(4))


class TestChunkBuffers:
    def test_a_buffer_is_reused_on_its_thread_and_private_to_it(self):
        first = chunk_buffer("test_scratch", 64, np.int32)
        assert chunk_buffer("test_scratch", 10, np.int32).base is first.base
        assert chunk_buffer("test_scratch", 64, np.int64).dtype == np.int64
        others = []
        worker = threading.Thread(
            target=lambda: others.append(chunk_buffer("test_scratch", 64, np.int64))
        )
        worker.start()
        worker.join()
        mine = chunk_buffer("test_scratch", 64, np.int64)
        assert not np.shares_memory(mine, others[0])

    def test_threads_sharing_engines_reproduce_serial_bits(self, monkeypatch):
        """Six threads on two cores run three shared engines at once.

        Every kernel's temporaries live in per-thread buffers, so each run
        still equals its serial twin bit for bit; a buffer shared between
        threads would mix chunks and change counts.
        """
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 2_048)
        engines = [
            build_engine(PathModel.SIMPLE, frozenset({2})),
            build_engine(PathModel.SIMPLE, frozenset({0, 3, 5}), AdversaryModel.PREDECESSOR_ONLY),
            build_engine(PathModel.CYCLE_ALLOWED, frozenset({1, 4})),
        ]
        assert_threads_reproduce_serial_bits(engines)

    def test_threads_sharing_coded_engines_reproduce_serial_bits(self, monkeypatch):
        """The same for the engines that decode slots and sort class codes.

        Full Bayes with either receiver setting and position-aware chunks
        write their slots, digit columns, codes and run flags into
        per-thread buffers too.
        """
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 2_048)
        engines = [
            build_engine(PathModel.SIMPLE, frozenset({0, 3, 5})),
            build_engine(PathModel.SIMPLE, frozenset({1, 4}), receiver_compromised=False),
            build_engine(PathModel.SIMPLE, frozenset({2, 6}), AdversaryModel.POSITION_AWARE),
        ]
        assert_threads_reproduce_serial_bits(engines)

    def test_coded_chunks_reuse_their_buffers(self):
        """Decoded slots and packed codes come back in the same cells on their thread."""
        engine = build_engine(PathModel.SIMPLE, frozenset({0, 3, 5}))
        _, _, first = engine.draw(1_000, np.random.default_rng(1))
        _, lengths, slots = engine.draw(600, np.random.default_rng(2))
        assert np.shares_memory(first, slots)
        coder = engine._score_table.coder
        origin = np.zeros(600, dtype=bool)
        codes = coder.encode(origin, lengths, slots).copy()
        again = coder.encode(origin, lengths, slots)
        assert np.shares_memory(again, coder.encode(origin, lengths, slots))
        assert np.array_equal(again, codes)

    @pytest.mark.parametrize("n_columns, code_dtype", [(3, np.int32), (16, np.int64)])
    def test_tally_counts_runs_exactly_like_unique(self, n_columns, code_dtype):
        """Sorting in place and counting runs gives np.unique's values and counts."""
        coder = ClassCoder(AdversaryModel.FULL_BAYES, True, n_columns, 8)
        assert coder.code_dtype is code_dtype
        generator = np.random.default_rng(n_columns)
        for size in (1, 2, 5_000):
            codes = generator.choice(
                np.array([0, 7, 64, coder.origin_code], dtype=code_dtype), size=size
            )
            values, counts = np.unique(codes, return_counts=True)
            tallied = coder.tally(codes)
            assert tallied == (values.tolist(), counts.tolist())
            assert (np.diff(codes) >= 0).all()  # left sorted, in place


def assert_threads_reproduce_serial_bits(engines) -> None:
    """Run four seeds per engine on six threads; each equals its serial run."""
    jobs = [(engine, seed) for engine in engines for seed in range(4)]
    serial = [engine.run_accumulate(30_001, rng=seed) for engine, seed in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(engine.run_accumulate, 30_001, seed) for engine, seed in jobs
            ]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
