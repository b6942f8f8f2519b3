"""Tests for the multi-compromised (C != 1) batch domain.

The load-bearing properties:

* the arrangement kernel draws the exact position-set law of uniform
  simple-path selection (marginals match theory; its trial-for-trial
  agreement with a scalar insertion walk lives in ``tests/test_kernels.py``);
* the columnar class codes are exactly the canonical observation classes:
  two trials share a code if and only if their observations agree up to
  relabelling;
* arrangement-class scoring is *exact*: the score of an observation class
  equals the per-observation posterior entropy the hop-by-hop event
  machinery computes for any concrete trial of that class;
* the generalized ``BatchMonteCarlo`` covers the exhaustive ground truth at
  ``C = 0``, ``C = 2``, ``C = 3``, under every adversary model, and with an
  honest receiver — the domains the five-class engine never reached;
* the ``event`` engine remains the parity oracle on systems too large to
  enumerate.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.adversary.inference import BayesianPathInference, observation_class_key
from repro.adversary.observation import observation_from_path
from repro.batch import ArrangementEngine, BatchMonteCarlo, ClassScoreTable
from repro.batch.backends import get_backend
from repro.batch import multiclass
from repro.batch.multiclass import ORIGIN_KEY, canonical_key
from repro.batch.sampler import decode_slots
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.experiment import StrategyMonteCarlo
from repro.telemetry import MetricsRegistry, activate

#: Small system where exhaustive enumeration is exact ground truth.
SMALL = dict(n_nodes=7)
SMALL_DISTRIBUTION = UniformLength(1, 4)


class _UntruncatedStrategy(PathSelectionStrategy):
    """A strategy that skips the simple-path truncation of its length law."""

    def effective_distribution(self, n_nodes: int):
        return self.distribution


def arrangement_engine(n_nodes, distribution, n_compromised) -> ArrangementEngine:
    model = SystemModel(n_nodes=n_nodes, n_compromised=n_compromised)
    strategy = PathSelectionStrategy(distribution.name, distribution)
    return ArrangementEngine(model, strategy, model.compromised_nodes())


def honest_positions(engine, n_trials, seed) -> Counter:
    """Histogram of the compromised position sets of honest-sender trials."""
    senders, lengths, slots = engine.draw(n_trials, np.random.default_rng(seed))
    positions: Counter = Counter()
    for sender, length, column in zip(senders.tolist(), lengths.tolist(), slots.T.tolist()):
        if sender not in engine.compromised:
            positions[tuple(slot + 1 for slot in column if slot < length)] += 1
    return positions


class TestArrangementEngineDraws:
    def test_rejects_bad_configurations(self):
        model = SystemModel(n_nodes=5, n_compromised=2)
        with pytest.raises(ConfigurationError, match="truncate"):
            ArrangementEngine(
                model, _UntruncatedStrategy("F(10)", FixedLength(10)), frozenset({0, 1})
            )
        with pytest.raises(ConfigurationError, match=r"\[0, N\)"):
            ArrangementEngine(
                model, PathSelectionStrategy("F(2)", FixedLength(2)), frozenset(range(6))
            )

    def test_slots_are_distinct_sorted_and_in_range(self):
        engine = arrangement_engine(9, UniformLength(0, 8), 3)
        senders, lengths, slots = engine.draw(2_000, np.random.default_rng(4))
        assert slots.shape == (3, 2_000)
        assert ((0 <= slots) & (slots < 8)).all()
        assert (np.diff(slots, axis=0) > 0).all()
        assert ((0 <= lengths) & (lengths <= 8)).all()
        assert ((0 <= senders) & (senders < 9)).all()

    def test_position_marginals_match_theory(self):
        """Each hop hosts a compromised node w.p. C/(N-1); counts never exceed C."""
        n_nodes, c, trials = 8, 3, 60_000
        positions = honest_positions(
            arrangement_engine(n_nodes, FixedLength(4), c), trials, 13
        )
        honest = sum(positions.values())
        per_position = c / (n_nodes - 1)
        for hop in (1, 2, 3, 4):
            observed = sum(
                count for placed, count in positions.items() if hop in placed
            ) / honest
            assert observed == pytest.approx(per_position, abs=0.01)
        mean_on_path = sum(
            len(placed) * count for placed, count in positions.items()
        ) / honest
        assert mean_on_path == pytest.approx(4 * per_position, abs=0.02)

    def test_single_compromised_reduces_to_the_five_class_law(self):
        """With C=1 the position marginal equals that of the C=1 law."""
        positions = honest_positions(
            arrangement_engine(10, FixedLength(3), 1), 50_000, 19
        )
        on_path = sum(count for placed, count in positions.items() if placed)
        assert on_path / sum(positions.values()) == pytest.approx(3 / 9, abs=0.01)

    def test_batch_estimate_at_n100_c3_u0_99_runs_on_arrangement(self):
        """Paths longer than 62 hops once hit a position-bitmask refusal."""
        model = SystemModel(n_nodes=100, n_compromised=3)
        strategy = PathSelectionStrategy("U(0, 99)", UniformLength(0, 99))
        assert BatchMonteCarlo(model, strategy).engine.name == "arrangement"
        report = get_backend("batch").estimate(model, strategy, n_trials=20_000, rng=1)
        assert report.n_trials == 20_000
        assert 0.0 < report.degree_bits <= math.log2(100)


def trial_arrays(n_nodes, n_compromised, n_trials, seed):
    """Random senders, lengths and row-sorted slots in the kernel's layout."""
    generator = np.random.default_rng(seed)
    senders = generator.integers(0, n_nodes, size=n_trials)
    lengths = generator.integers(0, n_nodes, size=n_trials)
    slots = decode_slots(
        [
            generator.integers(0, n_nodes - 1 - j, size=n_trials)
            for j in range(n_compromised)
        ],
        n_trials,
    )
    return senders, lengths, slots


def row_keys(table, compromised, senders, lengths, slots) -> Counter:
    """Canonical keys trial by trial, without any class code."""
    keys: Counter = Counter()
    for sender, length, column in zip(senders.tolist(), lengths.tolist(), slots.T.tolist()):
        if sender in compromised:
            keys[ORIGIN_KEY] += 1
        else:
            positions = tuple(slot + 1 for slot in column if slot < length)
            keys[table.class_key(length, positions)] += 1
    return keys


def coded_keys(table, compromised, senders, lengths, slots) -> Counter:
    """Canonical keys through the columnar codes and one histogram."""
    origin = np.isin(senders, sorted(compromised))
    codes = table.coder.encode(origin, lengths, slots)
    keys: Counter = Counter()
    for code, count in zip(*table.coder.tally(codes)):
        keys[table.key(code)] += count
    return keys


class TestClassKeyCounting:
    @pytest.mark.parametrize("reducer", ["packed", "digit-rows"])
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_histogram_matches_row_by_row_counting(
        self, monkeypatch, reducer, adversary
    ):
        if reducer == "digit-rows":
            monkeypatch.setattr(multiclass, "_MAX_PACKED_BINS", 0)
        model = SystemModel(n_nodes=9, n_compromised=3, adversary=adversary)
        table = ClassScoreTable(model, UniformLength(0, 8))
        assert table.coder.packed == (reducer == "packed")
        arrays = trial_arrays(9, 3, 4_000, 17)
        compromised = model.compromised_nodes()
        keyed = coded_keys(table, compromised, *arrays)
        assert keyed == row_keys(table, compromised, *arrays)
        assert sum(keyed.values()) == len(arrays[0])

    def test_origin_key_counts_compromised_senders(self):
        model = SystemModel(n_nodes=9, n_compromised=2)
        table = ClassScoreTable(model, UniformLength(0, 8))
        senders, lengths, slots = trial_arrays(9, 2, 3_000, 23)
        keyed = coded_keys(table, frozenset({0, 1}), senders, lengths, slots)
        expected = sum(1 for sender in senders.tolist() if sender in {0, 1})
        assert keyed[ORIGIN_KEY] == expected


def every_trial(n_nodes, n_compromised, max_length=None):
    """Every honest-sender ``(length, positions)`` a simple path can realise."""
    for length in range(n_nodes if max_length is None else max_length + 1):
        for k in range(min(n_compromised, length) + 1):
            # The other compromised nodes need off-path slots.
            if n_compromised - k > n_nodes - 1 - length:
                continue
            for positions in itertools.combinations(range(1, length + 1), k):
                yield length, positions


class TestClassCodes:
    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n_compromised", [0, 1, 2, 3, 5])
    def test_codes_are_the_canonical_observation_classes(
        self, n_compromised, adversary, receiver_compromised
    ):
        """Two trials share a code iff their observations agree up to relabelling.

        Each trial is realised with shuffled identities, so the oracle key
        owes nothing to the canonical labels the engine builds its trials
        from; no class may be merged into another or split in two.
        """
        n_nodes = 12
        model = SystemModel(
            n_nodes=n_nodes,
            n_compromised=n_compromised,
            adversary=adversary,
            receiver_compromised=receiver_compromised,
        )
        table = ClassScoreTable(model, UniformLength(0, n_nodes - 1))
        compromised = frozenset(range(3, 3 + n_compromised))
        shuffle = random.Random(n_compromised).shuffle
        trials = list(every_trial(n_nodes, n_compromised))
        slots = np.empty((n_compromised, len(trials)), dtype=np.int64)
        oracle = []
        for index, (length, positions) in enumerate(trials):
            off_path = range(length, length + n_compromised - len(positions))
            slots[:, index] = [position - 1 for position in positions] + list(off_path)
            identities = sorted(compromised)
            honest = [node for node in range(n_nodes) if node not in compromised]
            shuffle(identities)
            shuffle(honest)
            sender = honest.pop()
            path = [
                identities.pop() if hop in positions else honest.pop()
                for hop in range(1, length + 1)
            ]
            observation = observation_from_path(
                sender, path, compromised, receiver_compromised=receiver_compromised
            )
            oracle.append(
                canonical_key(observation_class_key(observation, adversary), compromised)
            )
        lengths = np.array([length for length, _ in trials], dtype=np.int64)
        codes = table.coder.encode(np.zeros(len(trials), dtype=bool), lengths, slots)
        keys_of_code: dict = {}
        codes_of_key: dict = {}
        for code, key in zip(codes.tolist(), oracle):
            keys_of_code.setdefault(code, set()).add(key)
            codes_of_key.setdefault(key, set()).add(code)
        assert all(len(keys) == 1 for keys in keys_of_code.values())
        assert all(len(codes) == 1 for codes in codes_of_key.values())
        for code, (key,) in keys_of_code.items():
            assert table.key(code) == key
        assert table.key(table.coder.origin_code) == ORIGIN_KEY

    @pytest.mark.parametrize(
        "adversary, observations, priced",
        [
            (AdversaryModel.FULL_BAYES, 40, 40),
            (AdversaryModel.PREDECESSOR_ONLY, 2, 2),
            (AdversaryModel.POSITION_AWARE, 3_497, None),
        ],
    )
    def test_priced_class_counts_at_n100_c3_u1_20(
        self, adversary, observations, priced
    ):
        """7 545 (length, position set) pairs fall into a few observation classes."""
        model = SystemModel(n_nodes=100, n_compromised=3, adversary=adversary)
        table = ClassScoreTable(model, UniformLength(1, 20))
        trials = [trial for trial in every_trial(100, 3, max_length=20) if trial[0]]
        assert len(trials) == 7_545
        slots = np.array(
            [
                [position - 1 for position in positions]
                + list(range(length, length + 3 - len(positions)))
                for length, positions in trials
            ],
            dtype=np.int64,
        ).T
        lengths = np.array([length for length, _ in trials], dtype=np.int64)
        codes = table.coder.encode(np.zeros(len(trials), dtype=bool), lengths, slots)
        present, counts = table.coder.tally(codes)
        assert len(present) == observations
        assert sum(counts) == len(trials)
        if priced is None:
            return
        with activate(MetricsRegistry()) as registry:
            for code in present:
                table.score(table.key(code))
            table.score(ORIGIN_KEY)  # pre-seeded: never priced
        value = registry.counter("classes_priced_total", engine="arrangement").value
        assert value == priced


    @pytest.mark.parametrize(
        "n_compromised, code_dtype", [(15, np.int32), (16, np.int64)]
    )
    def test_full_bayes_codes_are_int32_through_c15(self, n_compromised, code_dtype):
        """4**15 + 1 full-Bayes bins fit int32 codes and 4**16 + 1 do not.

        Either way the tallied codes name exactly the scalar keys of the
        trials they count.
        """
        n_nodes = 40
        distribution = UniformLength(1, 20)
        engine = arrangement_engine(n_nodes, distribution, n_compromised)
        table = ClassScoreTable(engine.model, distribution)
        assert table.coder.code_dtype is code_dtype
        senders, lengths, slots = engine.draw(3_000, np.random.default_rng(n_compromised))
        compromised = engine.compromised
        origin = np.isin(senders, sorted(compromised))
        codes = table.coder.encode(origin, lengths, slots)
        assert codes.dtype == code_dtype
        tallied: Counter = Counter()
        for code, count in zip(*table.coder.tally(codes)):
            tallied[table.key(code)] += count
        scalar: Counter = Counter()
        for sender, length, column in zip(senders.tolist(), lengths.tolist(), slots.T.tolist()):
            positions = {slot + 1 for slot in column if slot < length}
            spies = iter(sorted(compromised))
            honest = (node for node in range(n_nodes) if node not in compromised | {sender})
            path = [next(spies) if hop in positions else next(honest) for hop in range(1, length + 1)]
            observation = observation_from_path(sender, path, compromised)
            key = observation_class_key(observation, AdversaryModel.FULL_BAYES)
            scalar[canonical_key(key, compromised)] += 1
        assert tallied == scalar
        assert scalar[ORIGIN_KEY] == np.count_nonzero(origin) > 0


class TestClassScoreTable:
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_scores_equal_per_observation_posteriors(self, adversary):
        """The table's class score matches the event machinery trial-for-trial."""
        model = SystemModel(n_nodes=8, n_compromised=2, adversary=adversary)
        distribution = UniformLength(1, 4)
        compromised = model.compromised_nodes()
        table = ClassScoreTable(model, distribution)
        inference = BayesianPathInference(model, distribution, compromised)
        strategy = PathSelectionStrategy(distribution.name, distribution)
        generator = np.random.default_rng(31)
        for _ in range(120):
            sender = int(generator.integers(0, model.n_nodes))
            path = strategy.build_path(sender, model.n_nodes, generator)
            observation = observation_from_path(
                sender,
                path.intermediates,
                compromised,
                receiver_compromised=model.receiver_compromised,
            )
            posterior = inference.posterior(observation)
            key = canonical_key(observation_class_key(observation, adversary), compromised)
            if sender not in compromised:
                positions = tuple(
                    hop
                    for hop, node in enumerate(path.intermediates, start=1)
                    if node in compromised
                )
                assert table.class_key(len(path.intermediates), positions) == key
            score = table.score(key)
            assert score.entropy_bits == pytest.approx(
                posterior.entropy_bits, abs=1e-12
            )

    def test_origin_class_is_preseeded(self):
        model = SystemModel(n_nodes=8, n_compromised=2)
        table = ClassScoreTable(model, FixedLength(2))
        score = table.score(ORIGIN_KEY)
        assert score.entropy_bits == 0.0
        assert score.identified

    def test_prices_do_not_depend_on_the_compromised_identities(self):
        """Engines with different compromised sets share keys and floats."""
        model = SystemModel(n_nodes=30, n_compromised=3)
        strategy = PathSelectionStrategy("U(1, 12)", UniformLength(1, 12))
        one = ArrangementEngine(model, strategy, frozenset({0, 1, 2})).run_accumulate(
            20_000, rng=5
        )
        two = ArrangementEngine(model, strategy, frozenset({4, 17, 29})).run_accumulate(
            20_000, rng=6
        )
        shared = one.classes.keys() & two.classes.keys()
        assert len(shared) > 10
        for key in shared:
            assert one.classes[key][1:] == two.classes[key][1:]


class TestMultiBatchParity:
    @pytest.mark.parametrize("n_compromised", [0, 2, 3])
    def test_ci_covers_exhaustive_ground_truth(self, n_compromised):
        model = SystemModel(n_compromised=n_compromised, **SMALL)
        exact = ExhaustiveAnalyzer(model).anonymity_degree(SMALL_DISTRIBUTION)
        report = BatchMonteCarlo.from_distribution(model, SMALL_DISTRIBUTION).run(
            40_000, rng=202
        )
        assert report.estimate.contains(exact, slack=0.01)
        assert report.n_trials == 40_000

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_ci_covers_exhaustive_per_adversary(self, adversary):
        model = SystemModel(n_compromised=2, adversary=adversary, **SMALL)
        exact = ExhaustiveAnalyzer(model).anonymity_degree(SMALL_DISTRIBUTION)
        report = BatchMonteCarlo.from_distribution(model, SMALL_DISTRIBUTION).run(
            40_000, rng=59
        )
        assert report.estimate.contains(exact, slack=0.01)

    def test_honest_receiver_ci_covers_exhaustive(self):
        model = SystemModel(n_compromised=2, receiver_compromised=False, **SMALL)
        exact = ExhaustiveAnalyzer(model).anonymity_degree(SMALL_DISTRIBUTION)
        report = BatchMonteCarlo.from_distribution(model, SMALL_DISTRIBUTION).run(
            40_000, rng=77
        )
        assert report.estimate.contains(exact, slack=0.01)

    def test_event_engine_is_the_parity_oracle_at_scale(self):
        """On systems too large to enumerate, batch and event must agree."""
        model = SystemModel(n_nodes=25, n_compromised=3)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))
        event = StrategyMonteCarlo(model, strategy).run(2_500, rng=5)
        batch = BatchMonteCarlo(model, strategy).run(60_000, rng=6)
        gap = abs(event.degree_bits - batch.degree_bits)
        tolerance = 3.0 * (event.estimate.std_error + batch.estimate.std_error)
        assert gap <= tolerance, (
            f"event {event.estimate} vs batch {batch.estimate}"
        )

    def test_event_engine_is_the_parity_oracle_past_62_hops(self):
        """Paths up to 69 hops, beyond the old 62-hop position bitmask."""
        model = SystemModel(n_nodes=70, n_compromised=2)
        strategy = PathSelectionStrategy("U(50, 69)", UniformLength(50, 69))
        event = StrategyMonteCarlo(model, strategy).run(1_500, rng=5)
        batch = BatchMonteCarlo(model, strategy).run(60_000, rng=6)
        assert batch.mean_path_length > 59
        gap = abs(event.degree_bits - batch.degree_bits)
        tolerance = 3.0 * (event.estimate.std_error + batch.estimate.std_error)
        assert gap <= tolerance, (
            f"event {event.estimate} vs batch {batch.estimate}"
        )

    def test_identification_rate_exceeds_the_origin_floor(self):
        """With C=2 identification goes beyond compromised senders.

        A compromised sender always betrays itself (probability C/N), and with
        two compromised nodes some position sets — e.g. hops {1, 3} on an
        F(5) path, whose merged fragments pin every intermediate position —
        identify the sender outright as well, so the rate sits strictly above
        the origin floor.
        """
        model = SystemModel(n_nodes=20, n_compromised=2)
        report = BatchMonteCarlo.from_distribution(model, FixedLength(5)).run(
            40_000, rng=3
        )
        assert report.identification_rate >= 2 / 20 - 0.006
        assert report.identification_rate == pytest.approx(0.11, abs=0.02)

    def test_same_seed_reproduces_everything(self):
        model = SystemModel(n_compromised=2, **SMALL)
        estimator = BatchMonteCarlo.from_distribution(model, SMALL_DISTRIBUTION)
        first = estimator.run(5_000, rng=7)
        second = estimator.run(5_000, rng=7)
        assert first.estimate == second.estimate
        assert first.mean_path_length == second.mean_path_length
        assert first.identification_rate == second.identification_rate

    def test_entropy_never_exceeds_log2_n(self):
        model = SystemModel(n_nodes=9, n_compromised=4)
        report = BatchMonteCarlo.from_distribution(model, UniformLength(0, 8)).run(
            10_000, rng=2
        )
        assert 0.0 <= report.degree_bits <= math.log2(9)
