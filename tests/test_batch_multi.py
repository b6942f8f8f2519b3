"""Tests for the multi-compromised (C != 1) batch domain.

The load-bearing properties:

* the arrangement kernel draws the exact position-set law of uniform
  simple-path selection (marginals match theory; its trial-for-trial
  agreement with a scalar insertion walk lives in ``tests/test_kernels.py``);
* arrangement-class scoring is *exact*: the score of a ``(length, mask)``
  class equals the per-observation posterior entropy the hop-by-hop event
  machinery computes for any concrete trial of that class;
* the generalized ``BatchMonteCarlo`` covers the exhaustive ground truth at
  ``C = 0``, ``C = 2``, ``C = 3``, under every adversary model, and with an
  honest receiver — the domains the five-class engine never reached;
* the ``event`` engine remains the parity oracle on systems too large to
  enumerate.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.batch import ArrangementEngine, BatchMonteCarlo, ClassScoreTable
from repro.batch.multiclass import ORIGIN_KEY, count_key_arrays
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.experiment import StrategyMonteCarlo

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


def honest_masks(engine, n_trials, seed) -> Counter:
    """Mask histogram of one kernel chunk's honest-sender trials."""
    _, classes = engine.accumulate_chunk(n_trials, np.random.default_rng(seed))
    masks: Counter = Counter()
    for key, (count, _, _) in classes.items():
        if key != ORIGIN_KEY:
            masks[key[1]] += count
    return masks


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
        with pytest.raises(ConfigurationError, match="bitmask"):
            arrangement_engine(80, UniformLength(1, 70), 2)

    def test_masks_stay_inside_the_path(self):
        engine = arrangement_engine(9, UniformLength(0, 8), 3)
        _, classes = engine.accumulate_chunk(2_000, np.random.default_rng(4))
        for length, mask in classes:
            if (length, mask) != ORIGIN_KEY:
                assert mask >> length == 0
                assert bin(mask).count("1") <= 3

    def test_position_marginals_match_theory(self):
        """Each hop hosts a compromised node w.p. C/(N-1); counts never exceed C."""
        n_nodes, c, trials = 8, 3, 60_000
        masks = honest_masks(arrangement_engine(n_nodes, FixedLength(4), c), trials, 13)
        honest = sum(masks.values())
        per_position = c / (n_nodes - 1)
        for hop in (1, 2, 3, 4):
            observed = sum(
                count for mask, count in masks.items() if mask >> (hop - 1) & 1
            ) / honest
            assert observed == pytest.approx(per_position, abs=0.01)
        mean_on_path = sum(
            bin(mask).count("1") * count for mask, count in masks.items()
        ) / honest
        assert mean_on_path == pytest.approx(4 * per_position, abs=0.02)

    def test_single_compromised_reduces_to_the_five_class_law(self):
        """With C=1 the mask marginal equals the position marginal of the C=1 law."""
        masks = honest_masks(arrangement_engine(10, FixedLength(3), 1), 50_000, 19)
        on_path = sum(count for mask, count in masks.items() if mask)
        assert on_path / sum(masks.values()) == pytest.approx(3 / 9, abs=0.01)


class TestClassKeyCounting:
    @staticmethod
    def arrays(n_trials, seed):
        generator = np.random.default_rng(seed)
        senders = generator.integers(0, 9, size=n_trials)
        lengths = generator.integers(0, 6, size=n_trials)
        masks = generator.integers(0, 1 << 5, size=n_trials) & ((1 << lengths) - 1)
        return senders, lengths, masks

    def test_histogram_matches_row_by_row_counting(self):
        senders, lengths, masks = self.arrays(4_000, 17)
        compromised = frozenset({0, 1})
        keyed = count_key_arrays(senders, lengths, masks, compromised)
        expected = Counter(
            ORIGIN_KEY if sender in compromised else (length, mask)
            for sender, length, mask in zip(
                senders.tolist(), lengths.tolist(), masks.tolist()
            )
        )
        assert keyed == dict(expected)
        assert sum(keyed.values()) == 4_000

    def test_origin_key_counts_compromised_senders(self):
        senders, lengths, masks = self.arrays(3_000, 23)
        compromised = frozenset({0, 1})
        keyed = count_key_arrays(senders, lengths, masks, compromised)
        expected = sum(1 for sender in senders.tolist() if sender in compromised)
        assert keyed.get(ORIGIN_KEY, 0) == expected


class TestClassScoreTable:
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_scores_equal_per_observation_posteriors(self, adversary):
        """The table's class score matches the event machinery trial-for-trial."""
        model = SystemModel(n_nodes=8, n_compromised=2, adversary=adversary)
        distribution = UniformLength(1, 4)
        compromised = model.compromised_nodes()
        table = ClassScoreTable(
            model=model, distribution=distribution, compromised=compromised
        )
        inference = BayesianPathInference(model, distribution, compromised)
        strategy = PathSelectionStrategy(distribution.name, distribution)
        import numpy as np

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
            if sender in compromised:
                key = ORIGIN_KEY
            else:
                mask = 0
                for position, node in enumerate(path.intermediates, start=1):
                    if node in compromised:
                        mask |= 1 << (position - 1)
                key = (path.length, mask)
            score = table.score(key)
            assert score.entropy_bits == pytest.approx(
                posterior.entropy_bits, abs=1e-12
            )

    def test_origin_class_is_preseeded(self):
        model = SystemModel(n_nodes=8, n_compromised=2)
        table = ClassScoreTable(
            model=model,
            distribution=FixedLength(2),
            compromised=model.compromised_nodes(),
        )
        score = table.score(ORIGIN_KEY)
        assert score.entropy_bits == 0.0
        assert score.identified


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
