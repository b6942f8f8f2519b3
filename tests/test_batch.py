"""Tests for the vectorized batch-simulation subsystem (``repro.batch``).

The load-bearing properties:

* the inverse-CDF bulk sampler on :class:`PathLengthDistribution` reproduces
  the pmf;
* the five-class kernel's class frequencies reproduce the closed form's
  event table (its trial-for-trial agreement with the scalar reference rule
  :func:`repro.core.events.classify_trial` lives in ``tests/test_kernels.py``);
* the batch estimator is a statistically faithful drop-in for
  ``StrategyMonteCarlo``: its confidence interval covers the closed form on
  the single-compromised-node domain for every distribution family of the
  paper, and a fixed seed reproduces results exactly;
* the ``exact | event | batch`` backends route sweeps and the CLI onto any
  engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.sweep import fixed_length_sweep
from repro.batch import (
    BatchMonteCarlo,
    FiveClassEngine,
    available_backends,
    estimate_anonymity,
    get_backend,
)
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.events import EVENT_ORDER, EventClass, classify_trial
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions import (
    FixedLength,
    GeometricLength,
    TwoPointLength,
    UniformLength,
)
from repro.exceptions import ConfigurationError, DistributionError
from repro.routing.strategies import PathSelectionStrategy

#: The four families named by the parity requirement, all feasible at N=20.
PARITY_DISTRIBUTIONS = [
    FixedLength(5),
    UniformLength(2, 8),
    GeometricLength(p_forward=0.75, minimum=1, max_length=19),
    TwoPointLength(3, 4, 0.5),
]


class TestInverseCdfSampler:
    def test_cdf_table_ends_at_one(self):
        lengths, cumulative = UniformLength(2, 8).cdf_table()
        assert lengths == tuple(range(2, 9))
        assert cumulative[-1] == 1.0
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))

    def test_inverse_cdf_is_the_quantile_function(self):
        dist = TwoPointLength(3, 7, 0.25)
        assert dist.inverse_cdf(0.0) == 3
        assert dist.inverse_cdf(0.2) == 3
        assert dist.inverse_cdf(0.25) == 3
        assert dist.inverse_cdf(0.2500001) == 7
        assert dist.inverse_cdf(1.0) == 7

    def test_inverse_cdf_rejects_out_of_range(self):
        with pytest.raises(DistributionError):
            FixedLength(4).inverse_cdf(1.5)

    def test_sample_batch_matches_pmf(self):
        dist = UniformLength(1, 4)
        column = dist.sample_batch(40_000, rng=9)
        assert len(column) == 40_000
        for length in dist.support:
            frequency = sum(1 for v in column if v == length) / len(column)
            assert frequency == pytest.approx(dist.pmf(length), abs=0.01)

    def test_sample_batch_is_deterministic(self):
        dist = GeometricLength(p_forward=0.5, minimum=1, max_length=10)
        assert dist.sample_batch(500, rng=3) == dist.sample_batch(500, rng=3)

    def test_sample_batch_agrees_with_scalar_inverse_cdf(self):
        dist = UniformLength(0, 6)
        generator = np.random.default_rng(21)
        uniforms = generator.random(200)
        expected = [dist.inverse_cdf(u) for u in uniforms]
        column = dist.sample_batch(200, rng=21)
        assert list(column) == expected

    def test_sample_batch_size_zero_and_negative(self):
        assert len(FixedLength(2).sample_batch(0, rng=0)) == 0
        with pytest.raises(DistributionError):
            FixedLength(2).sample_batch(-1, rng=0)


class _UntruncatedStrategy(PathSelectionStrategy):
    """A strategy that skips the simple-path truncation of its length law."""

    def effective_distribution(self, n_nodes: int):
        return self.distribution


def five_class_engine(
    n_nodes: int,
    distribution,
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
) -> FiveClassEngine:
    model = SystemModel(n_nodes=n_nodes, n_compromised=1, adversary=adversary)
    strategy = PathSelectionStrategy(distribution.name, distribution)
    return FiveClassEngine(model, strategy, frozenset({0}))


def class_histogram(engine: FiveClassEngine, n_trials: int, seed: int) -> dict:
    """One kernel chunk's counts, keyed by :class:`EventClass` (zeros included)."""
    _, classes = engine.accumulate_chunk(n_trials, np.random.default_rng(seed))
    return {
        event: classes[code][0] if code in classes else 0
        for code, event in enumerate(EVENT_ORDER)
    }


class TestFiveClassEngineDraws:
    def test_rejects_infeasible_distribution(self):
        model = SystemModel(n_nodes=5, n_compromised=1)
        strategy = _UntruncatedStrategy("F(10)", FixedLength(10))
        with pytest.raises(ConfigurationError, match="infeasible"):
            FiveClassEngine(model, strategy, frozenset({0}))

    def test_rejects_bad_compromised_node(self):
        model = SystemModel(n_nodes=5, n_compromised=1)
        strategy = PathSelectionStrategy("F(2)", FixedLength(2))
        with pytest.raises(ConfigurationError, match=r"\[0, N\)"):
            FiveClassEngine(model, strategy, frozenset({5}))

    def test_position_marginals_match_theory(self):
        """P[m at any given hop] = 1/N over all trials; off-path matches too."""
        n_nodes, trials = 8, 60_000
        counts = class_histogram(five_class_engine(n_nodes, FixedLength(3)), trials, 13)
        # With F(3), hops 3, 2, 1 are exactly LAST, PENULTIMATE, INTERIOR, and
        # an honest sender (probability (N-1)/N) puts m on each with 1/(N-1).
        for event in (EventClass.LAST, EventClass.PENULTIMATE, EventClass.INTERIOR):
            assert counts[event] / trials == pytest.approx(1 / n_nodes, abs=0.01)
        assert counts[EventClass.SILENT] / trials == pytest.approx(
            (n_nodes - 1) / n_nodes * (1.0 - 3 / (n_nodes - 1)), abs=0.01
        )


class TestClassification:
    def test_class_counts_cover_every_class(self):
        counts = class_histogram(five_class_engine(9, UniformLength(0, 8)), 4_000, 23)
        assert all(counts[event] > 0 for event in EventClass)
        assert sum(counts.values()) == 4_000

    def test_scalar_reference_validates_position(self):
        with pytest.raises(ConfigurationError):
            classify_trial(sender_compromised=False, length=2, position=3)

    def test_class_frequencies_match_event_probabilities(self):
        """Observed class frequencies reproduce the closed form's event table."""
        model = SystemModel(n_nodes=12, n_compromised=1)
        distribution = UniformLength(1, 6)
        analysis = AnonymityAnalyzer(model).analyze(distribution)
        trials = 80_000
        counts = class_histogram(five_class_engine(12, distribution), trials, 29)
        for summary in analysis.events:
            observed = counts[summary.event] / trials
            assert observed == pytest.approx(summary.probability, abs=0.01)


class TestBatchEstimatorParity:
    @pytest.mark.parametrize(
        "distribution", PARITY_DISTRIBUTIONS, ids=lambda d: d.name
    )
    def test_ci_covers_closed_form(self, distribution):
        """Property: the 95% CI of the batch estimate covers H*(S) exactly."""
        model = SystemModel(n_nodes=20, n_compromised=1)
        strategy = PathSelectionStrategy(distribution.name, distribution)
        exact = AnonymityAnalyzer(model).anonymity_degree(
            strategy.effective_distribution(model.n_nodes)
        )
        report = BatchMonteCarlo(model, strategy).run(30_000, rng=202)
        assert report.estimate.contains(exact)
        assert report.n_trials == 30_000

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_ci_covers_closed_form_per_adversary(self, adversary):
        model = SystemModel(n_nodes=15, n_compromised=1, adversary=adversary)
        report = BatchMonteCarlo.from_distribution(model, UniformLength(2, 8)).run(
            30_000, rng=59
        )
        exact = AnonymityAnalyzer(model).anonymity_degree(UniformLength(2, 8))
        assert report.estimate.contains(exact)

    def test_same_seed_reproduces_everything(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        estimator = BatchMonteCarlo.from_distribution(model, UniformLength(2, 8))
        first = estimator.run(5_000, rng=7)
        second = estimator.run(5_000, rng=7)
        assert first.estimate == second.estimate
        assert first.mean_path_length == second.mean_path_length
        assert first.identification_rate == second.identification_rate

    def test_identification_rate_matches_origin_probability(self):
        """With F(l), l >= 2, only ORIGIN identifies: rate ~ 1/N."""
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = BatchMonteCarlo.from_distribution(model, FixedLength(5)).run(
            40_000, rng=3
        )
        assert report.identification_rate == pytest.approx(1 / 20, abs=0.005)

    def test_heavy_tail_is_truncated_like_the_strategy(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        crowds_like = GeometricLength(p_forward=0.9, minimum=1)
        estimator = BatchMonteCarlo.from_distribution(model, crowds_like)
        assert estimator.distribution.max_length == model.max_simple_path_length
        report = estimator.run(20_000, rng=12)
        exact = AnonymityAnalyzer(model).anonymity_degree(estimator.distribution)
        assert report.estimate.contains(exact)

    def test_domain_restrictions_are_enforced(self):
        cycle_strategy = PathSelectionStrategy(
            "cycles", FixedLength(3), path_model=PathModel.CYCLE_ALLOWED
        )
        # Cycle strategies select the cycle engine at any C.
        single = BatchMonteCarlo(SystemModel(n_nodes=10), cycle_strategy)
        assert single.engine.name == "cycle"
        multi = BatchMonteCarlo(
            SystemModel(n_nodes=10, n_compromised=2), cycle_strategy
        )
        assert multi.engine.name == "cycle"
        estimator = BatchMonteCarlo.from_distribution(
            SystemModel(n_nodes=10), FixedLength(3)
        )
        with pytest.raises(ConfigurationError):
            estimator.run(0)
        bad_compromised = SystemModel(n_nodes=10, n_compromised=1)
        with pytest.raises(ConfigurationError, match=r"\[0, N\)"):
            BatchMonteCarlo(
                bad_compromised,
                PathSelectionStrategy("F(3)", FixedLength(3)),
                compromised=frozenset({10}),
            )

    def test_formerly_restricted_domains_now_run(self):
        """C != 1 and honest receivers route onto the arrangement-class engine."""
        multi = SystemModel(n_nodes=10, n_compromised=2)
        report = BatchMonteCarlo.from_distribution(multi, FixedLength(3)).run(
            2_000, rng=1
        )
        assert 0.0 < report.degree_bits < math.log2(10)
        honest_receiver = SystemModel(
            n_nodes=10, n_compromised=1, receiver_compromised=False
        )
        report = BatchMonteCarlo.from_distribution(
            honest_receiver, FixedLength(3)
        ).run(2_000, rng=1)
        assert 0.0 < report.degree_bits <= math.log2(10)


class TestBackends:
    def test_available_backends_are_the_four(self):
        assert available_backends() == ("exact", "event", "batch", "sharded")

    @pytest.mark.parametrize("name", ["exact", "event", "batch", "sharded"])
    def test_get_backend_builds_the_named_backend(self, name):
        assert get_backend(name).name == name

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(
            ConfigurationError, match="known backends: exact, event, batch, sharded"
        ):
            get_backend("warp-drive")

    def test_exact_backend_reports_zero_width_interval(self):
        model = SystemModel(n_nodes=30, n_compromised=1)
        report = estimate_anonymity(model, FixedLength(4), backend="exact")
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(4))
        assert report.degree_bits == pytest.approx(exact)
        assert report.estimate.std_error == 0.0
        assert report.estimate.ci_low == report.estimate.ci_high
        assert report.mean_path_length == pytest.approx(4.0)

    def test_event_and_batch_agree_with_exact(self):
        model = SystemModel(n_nodes=15, n_compromised=1)
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(3))
        event = estimate_anonymity(
            model, FixedLength(3), n_trials=2_000, rng=5, backend="event"
        )
        batch = estimate_anonymity(
            model, FixedLength(3), n_trials=30_000, rng=5, backend="batch"
        )
        assert event.estimate.contains(exact, slack=0.02)
        assert batch.estimate.contains(exact)

    def test_estimate_anonymity_with_a_strategy(self):
        model = SystemModel(n_nodes=12, n_compromised=1)
        strategy = PathSelectionStrategy("F(2)", FixedLength(2))
        report = estimate_anonymity(
            model, strategy, n_trials=10_000, rng=1, backend="batch"
        )
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(2))
        assert report.estimate.contains(exact)


class TestSweepIntegration:
    def test_batch_backend_sweep_tracks_exact_sweep(self):
        model = SystemModel(n_nodes=25, n_compromised=1)
        lengths = [1, 4, 8, 12]
        reference = fixed_length_sweep(model, lengths)
        sampled = fixed_length_sweep(
            model, lengths, backend="batch", n_trials=30_000, rng=77
        )
        for exact, estimated in zip(
            reference.series[0].values, sampled.series[0].values
        ):
            assert estimated == pytest.approx(exact, abs=0.05)

    def test_sweep_is_reproducible_under_a_seed(self):
        model = SystemModel(n_nodes=25, n_compromised=1)
        first = fixed_length_sweep(
            model, [2, 5], backend="batch", n_trials=2_000, rng=11
        )
        second = fixed_length_sweep(
            model, [2, 5], backend="batch", n_trials=2_000, rng=11
        )
        assert first.series[0].values == second.series[0].values


class TestBatchExperiment:
    def test_entropy_never_exceeds_log2_n(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = BatchMonteCarlo.from_distribution(model, UniformLength(0, 19)).run(
            10_000, rng=2
        )
        assert 0.0 <= report.degree_bits <= math.log2(20)
