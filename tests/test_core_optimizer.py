"""Tests for the optimal path-length-distribution search (Section 5.4)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_core_anonymity import UnmemoisedAnalyzer

import repro
from repro.core import optimizer
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.core.optimizer import (
    best_fixed_length,
    best_uniform_for_mean,
    optimize_distribution,
)
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def model():
    return SystemModel(n_nodes=40, n_compromised=1)


@pytest.fixture(scope="module")
def analyzer(model):
    return AnonymityAnalyzer(model)


class TestBestFixedLength:
    def test_scan_matches_direct_evaluation(self, model, analyzer):
        scan = best_fixed_length(model, min_length=1, max_length=20)
        for length, degree in scan.degrees.items():
            assert degree == pytest.approx(analyzer.anonymity_degree(FixedLength(length)))
        assert scan.best_degree == max(scan.degrees.values())
        assert scan.degrees[scan.best_length] == scan.best_degree

    def test_default_range_covers_all_lengths(self, model):
        scan = best_fixed_length(model)
        assert set(scan.degrees) == set(range(1, model.max_simple_path_length + 1))

    def test_optimum_is_interior(self, model):
        scan = best_fixed_length(model)
        assert 1 < scan.best_length < model.max_simple_path_length

    def test_rejects_infeasible_max(self, model):
        with pytest.raises(ConfigurationError):
            best_fixed_length(model, max_length=model.n_nodes)


class TestBestUniformForMean:
    def test_scan_is_consistent(self, model, analyzer):
        scan = best_uniform_for_mean(model, mean=8)
        assert scan.mean == 8
        for width, degree in scan.degrees.items():
            reference = analyzer.anonymity_degree(UniformLength(8 - width, 8 + width))
            assert degree == pytest.approx(reference)
        assert scan.best_degree >= scan.degrees[0] - 1e-12

    def test_best_distribution_has_requested_mean(self, model):
        scan = best_uniform_for_mean(model, mean=10)
        assert scan.best_distribution.mean() == pytest.approx(10.0)

    def test_rejects_out_of_range_mean(self, model):
        with pytest.raises(ConfigurationError):
            best_uniform_for_mean(model, mean=model.n_nodes)

    def test_variable_length_beats_fixed_after_optimization(self, model, analyzer):
        """The paper's conclusion 4: optimized variable-length > fixed-length."""
        mean = 6
        scan = best_uniform_for_mean(model, mean=mean)
        fixed = analyzer.anonymity_degree(FixedLength(mean))
        assert scan.best_degree >= fixed
        assert scan.best_width > 0


class TestFullSimplexOptimization:
    def test_result_is_a_valid_distribution(self, model):
        outcome = optimize_distribution(model, min_length=0, max_length=12, mean=6.0)
        assert outcome.distribution.mean() == pytest.approx(6.0, abs=1e-3)
        total = sum(prob for _, prob in outcome.distribution.items())
        assert total == pytest.approx(1.0)

    def test_beats_or_matches_fixed_length_at_same_mean(self, model, analyzer):
        outcome = optimize_distribution(model, min_length=0, max_length=12, mean=6.0)
        fixed = analyzer.anonymity_degree(FixedLength(6))
        assert outcome.degree_bits >= fixed - 1e-6

    def test_beats_or_matches_uniform_family(self, model):
        scan = best_uniform_for_mean(model, mean=6)
        outcome = optimize_distribution(
            model, min_length=0, max_length=12, mean=6.0, initial=scan.best_distribution
        )
        assert outcome.degree_bits >= scan.best_degree - 1e-6

    def test_degree_matches_reported_distribution(self, model, analyzer):
        outcome = optimize_distribution(model, min_length=0, max_length=10, mean=5.0)
        recomputed = analyzer.anonymity_degree(outcome.distribution)
        assert recomputed == pytest.approx(outcome.degree_bits, abs=1e-6)

    def test_unconstrained_mean_prefers_long_support(self, model):
        outcome = optimize_distribution(model, min_length=0, max_length=20)
        assert outcome.degree_bits >= best_fixed_length(model, max_length=20).best_degree - 1e-6

    def test_invalid_parameters_rejected(self, model):
        with pytest.raises(ConfigurationError):
            optimize_distribution(model, min_length=5, max_length=3)
        with pytest.raises(ConfigurationError):
            optimize_distribution(model, min_length=0, max_length=10, mean=30.0)
        with pytest.raises(ConfigurationError):
            optimize_distribution(model, max_length=model.n_nodes)

    def test_initial_distribution_off_support_rejected(self, model):
        with pytest.raises(ConfigurationError):
            optimize_distribution(
                model, min_length=0, max_length=5, initial=FixedLength(10)
            )


class TestInputValidation:
    """Each bad input fails up front with a ConfigurationError naming it."""

    def test_best_fixed_length_min_10_max_5(self, model):
        with pytest.raises(ConfigurationError, match="min_length"):
            best_fixed_length(model, min_length=10, max_length=5)

    def test_optimize_min_length_minus_1(self, model, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the objective ran before validation")

        monkeypatch.setattr(AnonymityAnalyzer, "analyze", never)
        with pytest.raises(ConfigurationError, match="min_length"):
            optimize_distribution(model, min_length=-1, max_length=5)

    def test_best_uniform_mean_7_5(self, model):
        with pytest.raises(ConfigurationError, match="mean"):
            best_uniform_for_mean(model, 7.5)  # type: ignore[arg-type]


class TestMemoisedAnalyzerParity:
    """The optimisers take identical trajectories over the memoised closed form."""

    @staticmethod
    def _run(n: int, mean: int):
        model = SystemModel(n_nodes=n, n_compromised=1)
        scan = best_uniform_for_mean(model, mean)
        outcome = optimize_distribution(
            model, min_length=0, max_length=min(n - 1, 2 * mean), mean=mean
        )
        return scan, outcome

    @pytest.mark.parametrize("n,mean", [(50, 3), (100, 12), (100, 20)])
    def test_bit_identical_to_unmemoised_oracle(self, n, mean, monkeypatch):
        scan, outcome = self._run(n, mean)
        monkeypatch.setattr(optimizer, "AnonymityAnalyzer", UnmemoisedAnalyzer)
        expected_scan, expected = self._run(n, mean)
        assert scan.degrees == expected_scan.degrees
        assert scan.best_width == expected_scan.best_width
        assert outcome.degree_bits == expected.degree_bits
        assert outcome.iterations == expected.iterations
        assert outcome.distribution.as_dict() == expected.distribution.as_dict()


def test_cli_import_leaves_scipy_optimize_unloaded():
    """scipy loads on the first full-simplex optimisation, not with the CLI."""
    source = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
