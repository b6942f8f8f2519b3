"""Tests for the optimal path-length-distribution search (Section 5.4)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_core_anonymity import UnmemoisedAnalyzer

import repro
from repro.core import optimizer
from repro.core.anonymity import AnonymityAnalyzer, DegreeGradient
from repro.core.model import AdversaryModel, SystemModel
from repro.core.optimizer import (
    FixedLengthScan,
    UniformWidthScan,
    best_fixed_length,
    best_uniform_for_mean,
    optimize_distribution,
)
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative_int


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

    def test_optimize_initial_u12_12_off_mean_0_89(self):
        # U(12, 12) has mean 12.  It used to win the start-vs-best guard and
        # came back "converged" at mean 12.0 with 4.664 bits, above the 4.524
        # bits of the feasible optimum.  Now it only seeds the solver.
        model = SystemModel(n_nodes=31, n_compromised=1)
        outcome = optimize_distribution(
            model, min_length=0, max_length=12, mean=0.89, initial=UniformLength(12, 12)
        )
        reference = optimize_distribution(model, min_length=0, max_length=12, mean=0.89)
        assert outcome.converged
        assert outcome.distribution.mean() == pytest.approx(0.89, abs=1e-9)
        assert outcome.degree_bits == pytest.approx(reference.degree_bits, abs=1e-9)

    @pytest.mark.parametrize("length", [5, 0], ids=["support_5_5_mean_5", "support_0_0_mean_0"])
    def test_optimize_n_20_one_length_support_with_its_mean(self, length):
        # A solver once refused the mean constraint next to the simplex one
        # on a single variable ("More equality constraints than independent
        # variables") and reported converged=False for the only pmf there is.
        model = SystemModel(n_nodes=20, n_compromised=1)
        outcome = optimize_distribution(
            model, min_length=length, max_length=length, mean=length
        )
        assert outcome.converged, outcome.message
        assert outcome.iterations == 0
        assert outcome.distribution.as_dict() == {length: 1.0}
        assert outcome.degree_bits == AnonymityAnalyzer(model).anonymity_degree(
            FixedLength(length)
        )

    @pytest.mark.parametrize("adversary", list(AdversaryModel), ids=str)
    @pytest.mark.parametrize(
        "min_length,max_length,mean",
        [(0, 12, 0), (0, 12, 12), (3, 12, 3), (0, 7, 7), (4, 4, None), (0, 0, None)],
        ids=str,
    )
    def test_a_one_point_feasible_set_returns_its_point_mass(
        self, adversary, min_length, max_length, mean
    ):
        # A one-length support, or a mean at either end of the support,
        # leaves one feasible pmf; it needs no Newton step.
        model = SystemModel(n_nodes=20, n_compromised=1, adversary=adversary)
        outcome = optimize_distribution(
            model, min_length=min_length, max_length=max_length, mean=mean
        )
        point = min_length if mean is None else mean
        assert outcome.converged, outcome.message
        assert outcome.iterations == 0
        assert outcome.distribution.as_dict() == {point: 1.0}
        assert outcome.degree_bits == AnonymityAnalyzer(model).anonymity_degree(
            FixedLength(point)
        )

    @pytest.mark.parametrize("n,max_length", [(9, 2), (18, 14), (38, 25), (136, 54)])
    def test_an_optimal_vertex_that_empties_a_class_converges(self, n, max_length):
        # Predecessor-only, F(0) is optimal here, and it empties the on-path
        # class: near it that class's entropy hangs on the ratio of the
        # vanishing masses, so the dual residual never settles, and the
        # solver has to stop on the gap its multipliers certify.
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=AdversaryModel.PREDECESSOR_ONLY)
        outcome = optimize_distribution(model, min_length=0, max_length=max_length)
        assert outcome.converged, outcome.message
        direct = AnonymityAnalyzer(model).anonymity_degree(FixedLength(0))
        assert outcome.degree_bits == pytest.approx(direct, abs=1e-9)


@pytest.fixture
def no_evaluation(monkeypatch):
    """Fail the test if the closed form or the gradient evaluator runs."""

    def never(*args, **kwargs):
        raise AssertionError("the objective ran before validation")

    monkeypatch.setattr(AnonymityAnalyzer, "analyze", never)
    monkeypatch.setattr(DegreeGradient, "__call__", never)
    monkeypatch.setattr(DegreeGradient, "values", never)
    monkeypatch.setattr(DegreeGradient, "second_order", never)


class TestInputValidation:
    """Each bad input fails up front with a one-line ConfigurationError naming it."""

    @staticmethod
    def _rejects(match, call, *args, **kwargs):
        with pytest.raises(ConfigurationError, match=match) as caught:
            call(*args, **kwargs)
        assert "\n" not in str(caught.value)

    def test_best_fixed_length_min_10_max_5(self, model):
        self._rejects("min_length", best_fixed_length, model, min_length=10, max_length=5)

    def test_best_fixed_length_max_5_5(self, model, no_evaluation):
        self._rejects("max_length", best_fixed_length, model, 1, 5.5)

    def test_best_fixed_length_min_true(self, model, no_evaluation):
        self._rejects("min_length", best_fixed_length, model, True, 5)

    def test_optimize_min_length_minus_1(self, model, no_evaluation):
        self._rejects("min_length", optimize_distribution, model, min_length=-1, max_length=5)

    def test_optimize_min_length_1_5(self, model, no_evaluation):
        # The mean constraint would run over lengths 1.5, 2.5, ... 5.5 while
        # the returned pmf sat on 1 ... 5.
        self._rejects("min_length", optimize_distribution, model, min_length=1.5, max_length=6)

    def test_optimize_max_length_6_5(self, model, no_evaluation):
        # np.arange(0, 7.5) would let mass land on length 7.
        self._rejects("max_length", optimize_distribution, model, min_length=0, max_length=6.5)

    def test_optimize_max_iterations_0(self, model, no_evaluation):
        self._rejects(
            "max_iterations", optimize_distribution, model, max_length=5, max_iterations=0
        )

    def test_optimize_max_iterations_minus_3(self, model, no_evaluation):
        self._rejects(
            "max_iterations", optimize_distribution, model, max_length=5, max_iterations=-3
        )

    def test_optimize_max_iterations_2_5(self, model, no_evaluation):
        self._rejects(
            "max_iterations", optimize_distribution, model, max_length=5, max_iterations=2.5
        )

    def test_optimize_mean_true(self, model, no_evaluation):
        # True would run as the mean 1.
        self._rejects("mean", optimize_distribution, model, min_length=0, max_length=5, mean=True)

    def test_best_uniform_mean_7_5(self, model):
        self._rejects("mean", best_uniform_for_mean, model, 7.5)


#: Optima of the finite-difference SLSQP that the exact gradient replaced,
#: recorded with it: ``(adversary, N, mean): H*`` over ``0..min(N-1, 2*mean)``,
#: or ``0..N-1`` without a mean, as ``repro-anon optimize`` sets them up.
FINITE_DIFFERENCE_OPTIMA = {
    ("full_bayes", 20, None): 3.969180712228521,
    ("full_bayes", 20, 2): 3.9260820806123458,
    ("full_bayes", 20, 5): 3.967405171451557,
    ("full_bayes", 20, 12): 3.946917061380117,
    ("full_bayes", 50, None): 5.47283466498748,
    ("full_bayes", 50, 2): 5.431308506558104,
    ("full_bayes", 50, 5): 5.457706785378157,
    ("full_bayes", 50, 12): 5.471654385216321,
    ("full_bayes", 50, 30): 5.4656213053642135,
    ("full_bayes", 100, None): 6.547747471384482,
    ("full_bayes", 100, 2): 6.517177687161602,
    ("full_bayes", 100, 5): 6.5318681836543036,
    ("full_bayes", 100, 12): 6.542219572229742,
    ("full_bayes", 100, 30): 6.547694394851362,
    ("full_bayes", 200, None): 7.590650750817961,
    ("full_bayes", 200, 2): 7.5703864233047655,
    ("full_bayes", 200, 5): 7.578088935886243,
    ("full_bayes", 200, 12): 7.584078421997938,
    ("full_bayes", 200, 30): 7.5888708033309085,
    ("position_aware", 20, None): 3.8345763031819584,
    ("position_aware", 20, 2): 3.8293466049844747,
    ("position_aware", 20, 5): 3.7941647797850226,
    ("position_aware", 20, 12): 3.7035170859598305,
    ("position_aware", 50, None): 5.392457041985551,
    ("position_aware", 50, 2): 5.3917741383274285,
    ("position_aware", 50, 5): 5.386745533451166,
    ("position_aware", 50, 12): 5.373655930091738,
    ("position_aware", 50, 30): 5.339996950024608,
    ("position_aware", 100, None): 6.49744788984817,
    ("position_aware", 100, 2): 6.4972898442808384,
    ("position_aware", 100, 5): 6.496082398957359,
    ("position_aware", 100, 12): 6.492927024491159,
    ("position_aware", 100, 30): 6.484813204435543,
    ("position_aware", 200, None): 7.560451838777365,
    ("position_aware", 200, 2): 7.560413957955147,
    ("position_aware", 200, 5): 7.560118469575252,
    ("position_aware", 200, 12): 7.559344652765089,
    ("position_aware", 200, 30): 7.557354838113205,
    ("predecessor_only", 20, None): 4.035531137771406,
    ("predecessor_only", 20, 2): 4.004610573981134,
    ("predecessor_only", 20, 5): 4.02903128313235,
    ("predecessor_only", 20, 12): 4.035531137771406,
    ("predecessor_only", 50, None): 5.5024156455986875,
    ("predecessor_only", 50, 2): 5.477827253468296,
    ("predecessor_only", 50, 5): 5.490490847245216,
    ("predecessor_only", 50, 12): 5.499398410091084,
    ("predecessor_only", 50, 30): 5.502415647230679,
    ("predecessor_only", 100, None): 6.56306242765183,
    ("predecessor_only", 100, 2): 6.545922131628132,
    ("predecessor_only", 100, 5): 6.552706945539482,
    ("predecessor_only", 100, 12): 6.558217766682491,
    ("predecessor_only", 100, 30): 6.562282950989731,
    ("predecessor_only", 200, None): 7.598441296915322,
    ("predecessor_only", 200, 2): 7.587408207130682,
    ("predecessor_only", 200, 5): 7.590911295718862,
    ("predecessor_only", 200, 12): 7.593924963432882,
    ("predecessor_only", 200, 30): 7.5966216453815285,
}


#: Optima of the SLSQP solver that the interior-point method replaced,
#: recorded with it: ``(adversary, N, min_length, max_length, mean): H*``.
#: Supports that start above 0 or end below 4, and systems of N <= 4, have
#: classes whose special or other row is zero on the whole support (see
#: ``AnonymityAnalyzer.degree_gradient``), where an unfolded Hessian is NaN.
SLSQP_OPTIMA = {
    ("full_bayes", 12, 5, 6, 5.815): 2.9439371937261507,
    ("full_bayes", 100, 14, 60, 40.816): 6.538043713308013,
    ("predecessor_only", 6, 0, 1, 0.587): 1.707778113789655,
    ("position_aware", 5, 2, 4, None): 0.9509775004326935,
    ("full_bayes", 250, 12, 25, None): 7.913249142261532,
    ("full_bayes", 3, 0, 2, None): 0.5663661073981914,
    ("position_aware", 3, 0, 2, 1.3): 0.23333333333333328,
    ("predecessor_only", 3, 0, 2, None): 0.6666666666666647,
    ("full_bayes", 4, 0, 3, 1.5): 1.036692730083376,
    ("position_aware", 4, 1, 3, None): 0.5,
    ("predecessor_only", 4, 0, 3, 2.2): 1.188721875540867,
    ("full_bayes", 5, 1, 4, None): 1.2679700005769026,
    ("predecessor_only", 5, 2, 4, 3.1): 1.5881270261981966,
    ("position_aware", 6, 0, 5, 2.5): 1.4536883929498516,
    ("full_bayes", 6, 3, 5, None): 1.430827083453526,
    ("full_bayes", 7, 0, 6, 3.3): 2.042925822575881,
    ("position_aware", 7, 4, 6, 5.2): 1.3809125817691137,
    ("predecessor_only", 7, 1, 6, None): 2.2156821434752767,
    ("full_bayes", 8, 2, 7, 4.75): 2.159959354960537,
    ("position_aware", 8, 0, 7, None): 2.1552367800532624,
    ("predecessor_only", 8, 3, 7, 5.5): 2.450696879043292,
    ("position_aware", 100, 10, 40, 22.5): 6.476466945251794,
    ("predecessor_only", 200, 5, 150, None): 7.598177184120086,
    ("full_bayes", 30, 0, 29, 0.3): 2.1804274890225144,
    ("position_aware", 60, 20, 30, None): 5.647952724904105,
    ("full_bayes", 40, 37, 39, 38.9): 5.080274934917241,
}


def _certified_gap(model, lengths, pmf, mean):
    """The smallest duality gap any multipliers certify at ``pmf``, in bits.

    ``H*`` is concave, so ``H*(q) <= H*(p) + g @ (q - p)`` for every feasible
    ``q``, with ``g`` the gradient at ``p``.  By LP duality the largest
    ``g @ (q - p)`` over the feasible polytope is the least gap ``p @ z`` of
    multipliers ``(y, z = A.T @ y - g >= 0)``.  The polytope's vertices are
    the point masses, or with a mean the pmfs on two lengths bracketing it.
    """
    gradient = AnonymityAnalyzer(model).degree_gradient(lengths)(pmf)[1]
    if mean is None:
        best = gradient.max()
    else:
        low, high = np.flatnonzero(lengths <= mean), np.flatnonzero(lengths >= mean)
        below, above = lengths[low, None].astype(float), lengths[None, high].astype(float)
        span = above - below
        share = np.divide(mean - below, span, out=np.zeros(span.shape), where=span > 0)
        best = (gradient[low, None] * (1.0 - share) + gradient[None, high] * share).max()
    return float(best - gradient @ pmf)


class TestOptimumParity:
    """H* is concave in the pmf, so each problem has one optimum value, and an
    optimum below a recorded one is a solver bug."""

    @staticmethod
    def _check(outcome, mean, pinned):
        assert outcome.converged, outcome.message
        assert outcome.degree_bits >= pinned - 1e-9
        if mean is not None:
            assert abs(outcome.distribution.mean() - mean) <= 1e-9

    @pytest.mark.parametrize("adversary,n,mean", list(FINITE_DIFFERENCE_OPTIMA), ids=str)
    def test_never_below_the_finite_difference_optimum(self, adversary, n, mean):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=AdversaryModel(adversary))
        if mean is None:
            outcome = optimize_distribution(model, min_length=0)
        else:
            outcome = optimize_distribution(
                model, min_length=0, max_length=min(n - 1, 2 * mean), mean=mean
            )
        self._check(outcome, mean, FINITE_DIFFERENCE_OPTIMA[adversary, n, mean])

    @pytest.mark.parametrize("adversary,n,low,high,mean", list(SLSQP_OPTIMA), ids=str)
    def test_never_below_the_slsqp_optimum(self, adversary, n, low, high, mean):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=AdversaryModel(adversary))
        outcome = optimize_distribution(model, min_length=low, max_length=high, mean=mean)
        self._check(outcome, mean, SLSQP_OPTIMA[adversary, n, low, high, mean])

    @pytest.mark.parametrize(
        "adversary,n,low,high,mean",
        [
            *((adversary, n, 0, min(n - 1, 2 * mean), mean)
              for adversary, n, mean in FINITE_DIFFERENCE_OPTIMA if mean is not None),
            *((adversary, n, 0, n - 1, None)
              for adversary, n, mean in FINITE_DIFFERENCE_OPTIMA if mean is None),
            *SLSQP_OPTIMA,
        ],
        ids=str,
    )
    def test_a_kkt_certificate_holds_at_the_returned_optimum(self, adversary, n, low, high, mean):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=AdversaryModel(adversary))
        outcome = optimize_distribution(model, min_length=low, max_length=high, mean=mean)
        assert outcome.converged, outcome.message
        lengths = np.arange(low, high + 1)
        pmf = np.array([outcome.distribution.pmf(int(length)) for length in lengths])
        assert _certified_gap(model, lengths, pmf, mean) <= 1e-9


class TestExactGradientBudget:
    def test_n_100_mean_12_runs_on_the_exact_gradient(self, monkeypatch):
        # Finite differences over the 25 support points took 507 closed-form
        # analyses here; the exact value, gradient and Hessian need no
        # analysis until the end.
        calls = {"evaluate": 0, "analyze": 0}
        evaluate, second_order = DegreeGradient.__call__, DegreeGradient.second_order
        analyze = AnonymityAnalyzer.analyze

        def counted_evaluate(self, pmf):
            calls["evaluate"] += 1
            return evaluate(self, pmf)

        def counted_second_order(self, pmf):
            calls["evaluate"] += 1
            return second_order(self, pmf)

        def counted_analyze(self, distribution):
            calls["analyze"] += 1
            return analyze(self, distribution)

        monkeypatch.setattr(DegreeGradient, "__call__", counted_evaluate)
        monkeypatch.setattr(DegreeGradient, "second_order", counted_second_order)
        monkeypatch.setattr(AnonymityAnalyzer, "analyze", counted_analyze)
        outcome = optimize_distribution(
            SystemModel(n_nodes=100, n_compromised=1), min_length=0, max_length=24, mean=12
        )
        assert outcome.converged
        assert 0 < calls["evaluate"] <= 100
        # The closed form scores the returned distribution and the start.
        assert calls["analyze"] == 2


def oracle_best_fixed_length(
    model: SystemModel,
    min_length: int = 1,
    max_length: int | None = None,
) -> FixedLengthScan:
    """Oracle: the fixed-length scan as one closed-form analysis per length.

    The scan before the dense rows, verbatim.
    """
    min_length, max_length = optimizer._length_range(model, min_length, max_length)
    analyzer = AnonymityAnalyzer(model)
    degrees = {
        length: analyzer.anonymity_degree(FixedLength(length))
        for length in range(min_length, max_length + 1)
    }
    best_length = max(degrees, key=degrees.__getitem__)
    return FixedLengthScan(
        best_length=best_length, best_degree=degrees[best_length], degrees=degrees
    )


def oracle_best_uniform_for_mean(model: SystemModel, mean: int) -> UniformWidthScan:
    """Oracle: the width scan as one closed-form analysis per width.

    The scan before the dense rows, verbatim.
    """
    # U(mean - w, mean + w) has integer bounds.
    mean = check_non_negative_int(mean, "mean")
    analyzer = AnonymityAnalyzer(model)
    if mean > model.max_simple_path_length:
        raise ConfigurationError(
            f"mean ({mean}) must lie within [0, {model.max_simple_path_length}]"
        )
    max_width = min(mean, model.max_simple_path_length - mean)
    degrees: dict[int, float] = {}
    for width in range(max_width + 1):
        distribution = UniformLength(mean - width, mean + width)
        degrees[width] = analyzer.anonymity_degree(distribution)
    best_width = max(degrees, key=degrees.__getitem__)
    return UniformWidthScan(
        mean=mean,
        best_width=best_width,
        best_degree=degrees[best_width],
        degrees=degrees,
    )


def _largest_gap(scan, expected) -> float:
    """The largest difference between two scans' degrees, in bits."""
    assert scan.degrees.keys() == expected.degrees.keys()
    return max(abs(scan.degrees[key] - degree) for key, degree in expected.degrees.items())


class TestScansReportTheClosedFormWinner:
    """The scans search on dense rows, yet pick and report what one closed-form
    analysis per strategy picks, bit for bit.

    Every mean of each size holds flat stretches where strategies tie to
    within a few ulps and the dense form alone picks another one: the
    position-aware scans from mean 5 at N = 50, and every adversary's above
    N/2.  Each degree stays within half the tie band of the closed form.
    """

    @pytest.mark.parametrize("adversary", list(AdversaryModel), ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 20, 50, 100, 172, 300])
    def test_every_width_scan_matches_the_per_width_oracle(self, n, adversary):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=adversary)
        for mean in range(n):
            scan = best_uniform_for_mean(model, mean)
            expected = oracle_best_uniform_for_mean(model, mean)
            assert scan.best_width == expected.best_width, mean
            assert scan.best_degree == expected.best_degree, mean
            assert _largest_gap(scan, expected) <= optimizer._TIE_BAND / 2, mean

    @pytest.mark.parametrize("adversary", list(AdversaryModel), ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 20, 50, 100, 172, 300])
    def test_every_fixed_scan_matches_the_per_length_oracle(self, n, adversary):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=adversary)
        for min_length in range(min(2, n)):
            scan = best_fixed_length(model, min_length=min_length)
            expected = oracle_best_fixed_length(model, min_length=min_length)
            assert scan.best_length == expected.best_length, min_length
            assert scan.best_degree == expected.best_degree, min_length
            assert _largest_gap(scan, expected) <= optimizer._TIE_BAND / 2, min_length

    @pytest.mark.parametrize("adversary", list(AdversaryModel), ids=str)
    def test_the_gap_at_n_1000_stays_below_half_the_band(self, adversary):
        # The largest gap measured: 2.4e-13 bits, at F(496) under full Bayes.
        model = SystemModel(n_nodes=1000, n_compromised=1, adversary=adversary)
        scans = [
            (best_fixed_length(model, min_length=0), oracle_best_fixed_length(model, min_length=0)),
            *(
                (best_uniform_for_mean(model, mean), oracle_best_uniform_for_mean(model, mean))
                for mean in (12, 600)
            ),
        ]
        for scan, expected in scans:
            assert scan.best_degree == expected.best_degree
            assert _largest_gap(scan, expected) <= optimizer._TIE_BAND / 2


class TestScanBudget:
    """Each scan scores its strategies in one dense pass and analyses only the
    ones that tie for the maximum."""

    @staticmethod
    def _count_analyses(monkeypatch) -> list[str]:
        analyses: list[str] = []
        analyze = AnonymityAnalyzer.analyze

        def counted(self, distribution):
            analyses.append(distribution.name)
            return analyze(self, distribution)

        monkeypatch.setattr(AnonymityAnalyzer, "analyze", counted)
        return analyses

    def test_the_width_scan_at_n_100_mean_12_analyses_its_winner_only(self, monkeypatch):
        # One analysis per width took 13.
        analyses = self._count_analyses(monkeypatch)
        scan = best_uniform_for_mean(SystemModel(n_nodes=100, n_compromised=1), 12)
        assert analyses == [scan.best_distribution.name] == ["U(1, 23)"]

    def test_the_fixed_scan_at_n_100_analyses_its_winner_only(self, monkeypatch):
        # One analysis per length took 99.
        analyses = self._count_analyses(monkeypatch)
        scan = best_fixed_length(SystemModel(n_nodes=100, n_compromised=1))
        assert analyses == [FixedLength(scan.best_length).name]


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


def test_a_full_simplex_optimisation_leaves_scipy_unloaded():
    """The CLI and a full-simplex optimisation run on numpy alone."""
    source = Path(repro.__file__).resolve().parent.parent
    script = (
        "import sys, repro.cli\n"
        "from repro import SystemModel, optimize_distribution\n"
        "optimize_distribution(SystemModel(n_nodes=50, n_compromised=1), max_length=16, mean=8)\n"
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


#: Imports the CLI, answers an adaptive ``batch`` request, a ``sharded`` one
#: run inline, and the first request again from the on-disk cache, then
#: prints which simulator modules got loaded on the way.
_ESTIMATOR_SURFACE = """
import sys

import repro.cli
from repro.service import DistributionSpec, EstimateRequest, EstimationService


def request(**options):
    return EstimateRequest(
        n_nodes=20,
        distribution=DistributionSpec("uniform", {"low": 1, "high": 6}),
        precision=0.05,
        block_size=500,
        seed=3,
        **options,
    )


with EstimationService(cache_dir=sys.argv[1]) as service:
    service.estimate(request())
    service.estimate(
        request(backend="sharded", backend_options={"workers": 1, "shards": 2})
    )
with EstimationService(cache_dir=sys.argv[1]) as service:
    assert service.estimate(request()).from_cache
simulator = ("networkx", "repro.network", "repro.protocols", "repro.simulation.engine")
print(sorted(
    name for name in sys.modules
    if any(name == root or name.startswith(root + ".") for root in simulator)
))
"""


def test_estimator_requests_leave_the_simulator_unloaded(tmp_path):
    """Neither the CLI nor a batch, sharded or cached request loads the simulator."""
    source = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _ESTIMATOR_SURFACE, str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
