"""Tests for the exact anonymity-degree engine (the paper's core metric).

The key validation strategy: the closed-form event-class engine, the
re-derived theorem formulas, and exhaustive enumeration are three independent
code paths implementing the same model — they must agree exactly wherever
their domains overlap.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import anonymity
from repro.core.anonymity import AnonymityAnalyzer, AnonymityResult, anonymity_degree
from repro.core.closed_form import (
    fixed_length_degree,
    interior_event_entropy,
    two_point_degree,
    uniform_degree,
)
from repro.core.enumeration import ExhaustiveAnalyzer, enumerate_anonymity_degree
from repro.core.events import EventClass, EventSummary
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions import (
    CategoricalLength,
    FixedLength,
    GeometricLength,
    TwoPointLength,
    UniformLength,
)
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.utils.mathx import entropy_bits, falling_factorial


class UnmemoisedAnalyzer(AnonymityAnalyzer):
    """Oracle: the event tables without the per-length coefficient memo.

    ``_class_entropy`` and the full-Bayes and position-aware tables are the
    per-class passes the memoised analyzer replaced, kept verbatim: every
    class weight is its own generator sum that recomputes the exact falling
    factorials of each term, and every class entropy loops over candidates.
    The predecessor-only table is inherited; it only calls ``_class_entropy``.
    """

    @staticmethod
    def _class_entropy(special_weight: float, other_weight: float, n_others: int) -> tuple[float, int, float]:
        """Entropy of a posterior with one special candidate and ``n_others`` symmetric ones.

        Returns ``(entropy_bits, support_size, top_probability)``.  The weight
        arguments are unnormalised likelihood values; zero-weight candidates
        drop out of the support.
        """
        weights = []
        if special_weight > 0.0:
            weights.append(special_weight)
        weights.extend(other_weight for _ in range(n_others) if other_weight > 0.0)
        if not weights:
            return 0.0, 0, 0.0
        total = sum(weights)
        probabilities = [w / total for w in weights]
        return entropy_bits(probabilities), len(probabilities), max(probabilities)

    def _events_full_bayes(self, dist: PathLengthDistribution) -> list[EventSummary]:
        n = self._model.n_nodes

        def ff(a: int, b: int) -> int:
            return falling_factorial(a, b)

        # --- Event probabilities -------------------------------------- #
        p_origin = 1.0 / n
        p_silent = sum(prob * (n - 1 - length) for length, prob in dist.items()) / n
        p_last = sum(prob for length, prob in dist.items() if length >= 1) / n
        p_penultimate = sum(prob for length, prob in dist.items() if length >= 2) / n
        p_interior = sum(prob * max(length - 2, 0) for length, prob in dist.items()) / n

        # --- Posterior likelihood weights per class -------------------- #
        # SILENT: receiver reports w; the compromised node saw nothing.
        silent_special = dist.pmf(0)  # the reported node itself, via a direct path
        silent_other = sum(
            prob * ff(n - 3, length - 1) / ff(n - 1, length)
            for length, prob in dist.items()
            if length >= 1 and ff(n - 1, length) > 0
        )
        silent_entropy, silent_support, silent_top = self._class_entropy(
            silent_special, silent_other, n - 2
        )

        # LAST: the compromised node reports (p, R); the receiver reports m.
        last_special = dist.pmf(1) / ff(n - 1, 1) if n >= 2 else 0.0
        last_other = sum(
            prob * ff(n - 3, length - 2) / ff(n - 1, length)
            for length, prob in dist.items()
            if length >= 2 and ff(n - 1, length) > 0
        )
        last_entropy, last_support, last_top = self._class_entropy(
            last_special, last_other, n - 2
        )

        # PENULTIMATE: the compromised node's successor is the receiver's
        # reported predecessor.
        pen_special = dist.pmf(2) / ff(n - 1, 2) if n >= 3 else 0.0
        pen_other = sum(
            prob * ff(n - 4, length - 3) / ff(n - 1, length)
            for length, prob in dist.items()
            if length >= 3 and ff(n - 1, length) > 0
        )
        pen_entropy, pen_support, pen_top = self._class_entropy(
            pen_special, pen_other, n - 3
        )

        # INTERIOR: the compromised node's successor matches neither the
        # receiver nor the receiver's reported predecessor.
        interior_special = sum(
            prob * ff(n - 4, length - 3) / ff(n - 1, length)
            for length, prob in dist.items()
            if length >= 3 and ff(n - 1, length) > 0
        )
        interior_other = sum(
            prob * (length - 3) * ff(n - 5, length - 4) / ff(n - 1, length)
            for length, prob in dist.items()
            if length >= 4 and ff(n - 1, length) > 0
        )
        interior_entropy, interior_support, interior_top = self._class_entropy(
            interior_special, interior_other, n - 4
        )

        return [
            EventSummary(EventClass.ORIGIN, p_origin, 0.0, 1, 1.0),
            EventSummary(EventClass.SILENT, p_silent, silent_entropy, silent_support, silent_top),
            EventSummary(EventClass.LAST, p_last, last_entropy, last_support, last_top),
            EventSummary(
                EventClass.PENULTIMATE, p_penultimate, pen_entropy, pen_support, pen_top
            ),
            EventSummary(
                EventClass.INTERIOR, p_interior, interior_entropy, interior_support, interior_top
            ),
        ]

    def _events_position_aware(self, dist: PathLengthDistribution) -> list[EventSummary]:
        n = self._model.n_nodes

        p_origin = 1.0 / n
        p_silent = sum(prob * (n - 1 - length) for length, prob in dist.items()) / n
        # The compromised node at position 1 sees the sender directly and the
        # adversary knows the position, so the sender is identified.
        p_identified = sum(prob for length, prob in dist.items() if length >= 1) / n
        p_last = sum(prob for length, prob in dist.items() if length >= 2) / n
        p_penultimate = sum(prob for length, prob in dist.items() if length >= 3) / n
        p_interior = sum(prob * max(length - 3, 0) for length, prob in dist.items()) / n

        # SILENT is identical to the FULL_BAYES case: position knowledge adds
        # nothing when the compromised node is off the path.
        silent_special = dist.pmf(0)
        silent_other = sum(
            prob * falling_factorial(n - 3, length - 1) / falling_factorial(n - 1, length)
            for length, prob in dist.items()
            if length >= 1 and falling_factorial(n - 1, length) > 0
        )
        silent_entropy, silent_support, silent_top = self._class_entropy(
            silent_special, silent_other, n - 2
        )

        def uniform_event(excluded: int) -> tuple[float, int, float]:
            candidates = max(n - excluded, 0)
            if candidates <= 0:
                return 0.0, 0, 0.0
            return math.log2(candidates), candidates, 1.0 / candidates

        last_entropy, last_support, last_top = uniform_event(2)
        pen_entropy, pen_support, pen_top = uniform_event(3)
        interior_entropy, interior_support, interior_top = uniform_event(4)

        return [
            EventSummary(EventClass.ORIGIN, p_origin + p_identified, 0.0, 1, 1.0),
            EventSummary(EventClass.SILENT, p_silent, silent_entropy, silent_support, silent_top),
            EventSummary(EventClass.LAST, p_last, last_entropy, last_support, last_top),
            EventSummary(EventClass.PENULTIMATE, p_penultimate, pen_entropy, pen_support, pen_top),
            EventSummary(
                EventClass.INTERIOR, p_interior, interior_entropy, interior_support, interior_top
            ),
        ]


class TestAnalyzerConstruction:
    def test_requires_single_compromised_node(self):
        with pytest.raises(ConfigurationError, match="ExhaustiveAnalyzer.*batch backend"):
            AnonymityAnalyzer(SystemModel(n_nodes=10, n_compromised=2))

    def test_requires_simple_paths(self):
        model = SystemModel(n_nodes=10, path_model=PathModel.CYCLE_ALLOWED)
        with pytest.raises(ConfigurationError, match="ExhaustiveAnalyzer.*batch backend"):
            AnonymityAnalyzer(model)

    def test_requires_compromised_receiver(self):
        model = SystemModel(n_nodes=10, receiver_compromised=False)
        with pytest.raises(ConfigurationError):
            AnonymityAnalyzer(model)

    def test_rejects_distribution_exceeding_simple_path_bound(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=10))
        with pytest.raises(ConfigurationError):
            analyzer.anonymity_degree(FixedLength(10))


class TestDegenerateCases:
    def test_direct_path_gives_zero_anonymity(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        assert analyzer.anonymity_degree(FixedLength(0)) == pytest.approx(0.0)

    def test_upper_bound_log2_n(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        for dist in (FixedLength(5), UniformLength(2, 30), GeometricLength(0.7, max_length=99)):
            assert analyzer.anonymity_degree(dist) < paper_model.max_entropy

    def test_lengths_one_and_two_coincide(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        assert analyzer.anonymity_degree(FixedLength(1)) == pytest.approx(
            analyzer.anonymity_degree(FixedLength(2))
        )

    def test_lengths_two_and_three_nearly_coincide(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        f2 = analyzer.anonymity_degree(FixedLength(2))
        f3 = analyzer.anonymity_degree(FixedLength(3))
        assert abs(f2 - f3) < 1e-3

    def test_known_value_small_system(self):
        # For N=6 and F(2): H* = (N-2)/N * log2(N-2) = (4/6) * 2 = 4/3.
        assert anonymity_degree(6, FixedLength(2)) == pytest.approx(4.0 / 3.0)


class TestEventBreakdown:
    def test_event_probabilities_sum_to_one(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        for dist in (FixedLength(5), UniformLength(0, 10), TwoPointLength(1, 9, 0.3)):
            result = analyzer.analyze(dist)
            total = sum(summary.probability for summary in result.events)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_origin_event_has_zero_entropy(self, paper_model):
        result = AnonymityAnalyzer(paper_model).analyze(FixedLength(5))
        assert result.event(EventClass.ORIGIN).entropy_bits == 0.0
        assert result.event(EventClass.ORIGIN).probability == pytest.approx(0.01)

    def test_interior_event_absent_for_short_paths(self, paper_model):
        result = AnonymityAnalyzer(paper_model).analyze(FixedLength(2))
        assert result.event(EventClass.INTERIOR).probability == pytest.approx(0.0)

    def test_contributions_add_up_to_degree(self, paper_model):
        result = AnonymityAnalyzer(paper_model).analyze(UniformLength(3, 12))
        assert sum(s.contribution_bits for s in result.events) == pytest.approx(
            result.degree_bits
        )

    def test_normalized_degree_in_unit_interval(self, paper_model):
        result = AnonymityAnalyzer(paper_model).analyze(UniformLength(3, 12))
        assert 0.0 <= result.normalized_degree <= 1.0

    def test_unknown_event_class_lookup_fails(self, paper_model):
        result = AnonymityAnalyzer(paper_model).analyze(FixedLength(2))
        assert isinstance(result, AnonymityResult)
        with pytest.raises(KeyError):
            result.event("nonsense")  # type: ignore[arg-type]


class TestClosedFormAgreement:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 7, 15, 40, 70, 99])
    def test_theorem1_matches_analyzer(self, paper_model, length):
        analyzer = AnonymityAnalyzer(paper_model)
        assert fixed_length_degree(100, length) == pytest.approx(
            analyzer.anonymity_degree(FixedLength(length)), abs=1e-9
        )

    @pytest.mark.parametrize("p_short", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_theorem2_matches_analyzer(self, paper_model, p_short):
        analyzer = AnonymityAnalyzer(paper_model)
        if p_short == 0.0:
            reference = analyzer.anonymity_degree(FixedLength(9))
        elif p_short == 1.0:
            reference = analyzer.anonymity_degree(FixedLength(2))
        else:
            reference = analyzer.anonymity_degree(TwoPointLength(2, 9, p_short))
        assert two_point_degree(100, 2, 9, p_short) == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("low,high", [(0, 5), (1, 1), (2, 10), (4, 40), (51, 90)])
    def test_theorem3_matches_analyzer(self, paper_model, low, high):
        analyzer = AnonymityAnalyzer(paper_model)
        assert uniform_degree(100, low, high) == pytest.approx(
            analyzer.anonymity_degree(UniformLength(low, high)), abs=1e-9
        )

    # Beyond N ~ 171 the falling factorials of the class weights overflow a
    # float; the closed form must still evaluate, and agree with the analyzer.
    def test_uniform_degree_200_1_150(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=200))
        assert uniform_degree(200, 1, 150) == pytest.approx(
            analyzer.anonymity_degree(UniformLength(1, 150)), abs=1e-12
        )

    def test_uniform_degree_200_0_199(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=200))
        assert uniform_degree(200, 0, 199) == pytest.approx(
            analyzer.anonymity_degree(UniformLength(0, 199)), abs=1e-12
        )

    def test_two_point_degree_200_1_190_half(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=200))
        assert two_point_degree(200, 1, 190, 0.5) == pytest.approx(
            analyzer.anonymity_degree(TwoPointLength(1, 190, 0.5)), abs=1e-12
        )

    def test_interior_entropy_requires_length_three(self):
        with pytest.raises(ConfigurationError):
            interior_event_entropy(100, 2)
        assert interior_event_entropy(100, 3) == 0.0
        assert interior_event_entropy(100, 4) > 0.0

    def test_closed_form_rejects_invalid_system(self):
        with pytest.raises(ConfigurationError):
            fixed_length_degree(5, 5)
        with pytest.raises(ConfigurationError):
            uniform_degree(10, 5, 2)
        with pytest.raises(ConfigurationError):
            two_point_degree(10, 5, 5, 0.5)


class TestEnumerationAgreement:
    @pytest.mark.parametrize(
        "distribution",
        [
            FixedLength(1),
            FixedLength(3),
            FixedLength(6),
            UniformLength(0, 4),
            UniformLength(2, 5),
            TwoPointLength(1, 5, 0.25),
            GeometricLength(0.5, minimum=1, max_length=6),
            CategoricalLength({0: 0.1, 2: 0.4, 5: 0.5}),
        ],
    )
    def test_closed_form_equals_enumeration(self, distribution):
        n = 7
        closed = anonymity_degree(n, distribution)
        enumerated = enumerate_anonymity_degree(n, distribution)
        assert closed == pytest.approx(enumerated, abs=1e-10)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_adversary_variants_match_enumeration(self, adversary):
        n = 6
        distribution = UniformLength(1, 4)
        closed = anonymity_degree(n, distribution, adversary=adversary)
        enumerated = enumerate_anonymity_degree(n, distribution, adversary=adversary)
        assert closed == pytest.approx(enumerated, abs=1e-10)

    def test_enumeration_rejects_large_systems(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveAnalyzer(SystemModel(n_nodes=30))

    def test_enumeration_supports_multiple_compromised(self):
        value_c1 = enumerate_anonymity_degree(6, FixedLength(3), n_compromised=1)
        value_c2 = enumerate_anonymity_degree(6, FixedLength(3), n_compromised=2)
        assert value_c2 < value_c1

    def test_enumeration_supports_cycles(self):
        value = enumerate_anonymity_degree(
            5, FixedLength(3), path_model=PathModel.CYCLE_ALLOWED
        )
        assert 0.0 < value < math.log2(5)

    def test_enumeration_zero_compromised_gives_log2n_minus_receiver_info(self):
        # With no compromised nodes the adversary still controls the receiver,
        # which excludes the last intermediate node; the degree is therefore
        # below log2(N) but far above zero.
        value = enumerate_anonymity_degree(6, FixedLength(2), n_compromised=0)
        assert math.log2(4) < value < math.log2(6)

    def test_enumeration_without_receiver_and_compromised_is_maximal(self):
        value = enumerate_anonymity_degree(
            6, FixedLength(2), n_compromised=0, receiver_compromised=False
        )
        assert value == pytest.approx(math.log2(6))


class TestAdversaryOrdering:
    @pytest.mark.parametrize("length", [1, 3, 5, 10, 30, 60, 99])
    def test_stronger_adversaries_never_increase_anonymity(self, length):
        full = anonymity_degree(100, FixedLength(length), AdversaryModel.FULL_BAYES)
        aware = anonymity_degree(100, FixedLength(length), AdversaryModel.POSITION_AWARE)
        weak = anonymity_degree(100, FixedLength(length), AdversaryModel.PREDECESSOR_ONLY)
        assert aware <= full + 1e-9
        assert full <= weak + 1e-9


class TestPaperShape:
    """The qualitative findings of the paper's Section 6 for N=100, C=1."""

    def test_long_path_effect_maximum_is_interior(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        degrees = {l: analyzer.anonymity_degree(FixedLength(l)) for l in range(1, 100)}
        best = max(degrees, key=degrees.__getitem__)
        assert 4 < best < 99
        assert degrees[99] < degrees[best]
        assert degrees[1] < degrees[best]

    def test_short_path_effect_values_in_paper_band(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        assert 6.4 < analyzer.anonymity_degree(FixedLength(1)) < 6.55
        assert 6.4 < analyzer.anonymity_degree(FixedLength(4)) < 6.55

    def test_uniform_lower_bound_three_matches_fixed_at_same_mean(self, paper_model):
        analyzer = AnonymityAnalyzer(paper_model)
        for mean in (10, 20, 30):
            uniform = analyzer.anonymity_degree(UniformLength(4, 2 * mean - 4))
            fixed = analyzer.anonymity_degree(FixedLength(mean))
            assert uniform == pytest.approx(fixed, abs=2e-2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=99))
    def test_degree_bounds_property(self, a, b):
        low, high = min(a, b), max(a, b)
        value = anonymity_degree(100, UniformLength(low, high))
        assert -1e-12 <= value <= math.log2(100)


def _laws(n: int) -> list[PathLengthDistribution]:
    """Every F(l), a grid of U(a, b) and two-point laws, and 200 random pmfs.

    The random pmfs are seeded by ``n`` and some carry entries at or below
    the ``1e-15`` support threshold, which the distributions drop.
    """
    top = n - 1
    step = max(1, top // 6)
    grid = sorted({*range(0, top + 1, step), top})
    laws: list[PathLengthDistribution] = [FixedLength(length) for length in range(n)]
    laws += [UniformLength(low, high) for low in grid for high in grid if low < high]
    laws += [
        TwoPointLength(short, long, p_short)
        for short in grid
        for long in grid
        if short < long
        for p_short in (0.125, 0.5, 0.9)
    ]
    draw = random.Random(n)
    for _ in range(200):
        support = draw.sample(range(n), draw.randint(1, min(n, 41)))
        weights = [draw.random() ** 3 for _ in support]
        if len(support) > 1 and draw.random() < 0.3:
            weights[-1] = draw.choice((1e-16, 1e-15, 5e-16)) * sum(weights[:-1])
        total = sum(weights)
        laws.append(CategoricalLength({length: w / total for length, w in zip(support, weights)}))
    return laws


class TestCoefficientMemo:
    """The memoised single-pass tables reproduce the per-class passes bit for bit."""

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9, 20, 50, 100, 150])
    def test_matches_unmemoised_oracle(self, n, adversary):
        model = SystemModel(n_nodes=n, n_compromised=1, adversary=adversary)
        analyzer, oracle = AnonymityAnalyzer(model), UnmemoisedAnalyzer(model)
        for law in _laws(n):
            result, expected = analyzer.analyze(law), oracle.analyze(law)
            assert result.events == expected.events, law.name
            assert result.degree_bits == expected.degree_bits, law.name

    @pytest.mark.parametrize("adversary", [AdversaryModel.FULL_BAYES, AdversaryModel.POSITION_AWARE])
    def test_repeated_support_computes_no_falling_factorials(self, adversary, monkeypatch):
        calls = []

        def counted(n: int, k: int) -> int:
            calls.append((n, k))
            return falling_factorial(n, k)

        monkeypatch.setattr(anonymity, "falling_factorial", counted)
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=100, adversary=adversary))
        law = UniformLength(0, 40)
        analyzer.analyze(law)
        assert len(calls) <= 5 * len(law.support)
        calls.clear()
        analyzer.analyze(UniformLength(10, 30))
        analyzer.analyze(law)
        assert calls == []

    def test_fixed_lengths_at_n_200_match_theorem1(self):
        # (N-1)_l exceeds the float range from N ~ 172; the closed form used
        # to die with "OverflowError: int too large to convert to float".
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=200))
        for length in range(200):
            assert analyzer.anonymity_degree(FixedLength(length)) == pytest.approx(
                fixed_length_degree(200, length), rel=1e-12
            )

    def test_position_aware_at_n_200_is_below_full_bayes(self):
        law = UniformLength(0, 199)
        aware = anonymity_degree(200, law, AdversaryModel.POSITION_AWARE)
        assert 0.0 < aware < anonymity_degree(200, law)

    def test_cli_degree_n_200_length_150(self, capsys):
        assert main(["degree", "--n", "200", "--strategy", "fixed", "--length", "150"]) == 0
        assert "H*(S) = 7.58550 bits" in capsys.readouterr().out

    def test_cli_optimize_n_200_mean_90(self, capsys):
        assert main(["optimize", "--n", "200", "--mean", "90"]) == 0
        assert "best uniform" in capsys.readouterr().out


class TestDegreeGradient:
    """The dense value-and-gradient the Section 5.4 optimiser runs on."""

    @staticmethod
    def _evaluator(n: int, adversary: AdversaryModel):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=n, n_compromised=1, adversary=adversary))
        return analyzer, analyzer.degree_gradient(range(n))

    @staticmethod
    def _pmfs(n: int):
        """Random pmfs on 0..n-1 whose entries stay far above the FD step."""
        generator = np.random.default_rng(n)
        for _ in range(3):
            weights = generator.uniform(0.5, 1.5, n)
            yield weights / weights.sum()

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n", [5, 40, 100, 200])
    def test_value_matches_analyze(self, n, adversary):
        analyzer, evaluate = self._evaluator(n, adversary)
        for pmf in self._pmfs(n):
            law = CategoricalLength(dict(enumerate(pmf.tolist())))
            assert abs(evaluate(pmf)[0] - analyzer.analyze(law).degree_bits) <= 1e-12

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n", [5, 40, 100, 200])
    def test_gradient_matches_central_differences(self, n, adversary):
        _, evaluate = self._evaluator(n, adversary)
        step = 1e-6
        for pmf in self._pmfs(n):
            gradient = evaluate(pmf)[1]
            differences = [
                (evaluate(pmf + step * unit)[0] - evaluate(pmf - step * unit)[0]) / (2 * step)
                for unit in np.eye(n)
            ]
            np.testing.assert_allclose(gradient, differences, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n", [5, 20, 100, 200])
    @pytest.mark.parametrize("low", [0, 2], ids=["from_0", "from_2"])
    def test_hessian_matches_central_differences_of_the_gradient(self, n, adversary, low):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=n, n_compromised=1, adversary=adversary))
        evaluate = analyzer.degree_gradient(range(low, n))
        step = 1e-6
        for pmf in self._pmfs(n - low):
            value, gradient, hessian = evaluate.second_order(pmf)
            first_value, first_gradient = evaluate(pmf)
            assert value == first_value
            np.testing.assert_array_equal(gradient, first_gradient)
            differences = [
                (evaluate(pmf + step * unit)[1] - evaluate(pmf - step * unit)[1]) / (2 * step)
                for unit in np.eye(n - low)
            ]
            np.testing.assert_allclose(
                differences, hessian, rtol=1e-6, atol=1e-6 * np.abs(hessian).max()
            )

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_hessian_is_finite_on_every_support_of_a_small_system(self, n, adversary):
        # Supports that start above 0 or end below 4, and the counts clipped
        # to 0 at N <= 4, zero a class's special or other row on the whole
        # support; folded into the constant row, such a class cannot turn
        # the Hessian's 1/s or 1/o terms into NaN.
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=n, n_compromised=1, adversary=adversary))
        for low in range(n):
            for high in range(low, n):
                evaluate = analyzer.degree_gradient(range(low, high + 1))
                for pmf in self._pmfs(high - low + 1):
                    value, gradient, hessian = evaluate.second_order(pmf)
                    assert np.isfinite(hessian).all(), (low, high)
                    assert value == pytest.approx(evaluate(pmf)[0], abs=1e-15)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("mean", [1, 2, 12])
    def test_gradient_is_finite_at_the_mean_matching_start(self, mean, adversary):
        # Pr[L = 0] = 0 there: the special candidate of the silent class has
        # zero weight, where the entropy's slope is unbounded.
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=100, adversary=adversary))
        start = np.zeros(2 * mean + 1)
        start[mean] = 1.0
        degree, gradient = analyzer.degree_gradient(range(2 * mean + 1))(start)
        assert degree == pytest.approx(analyzer.degree_for_fixed_length(mean), abs=1e-12)
        assert np.isfinite(gradient).all()

    @pytest.mark.parametrize(
        "adversary,length",
        [(AdversaryModel.PREDECESSOR_ONLY, 0), (AdversaryModel.POSITION_AWARE, 29)],
    )
    def test_a_class_of_zero_weight_takes_each_lengths_own_entropy(self, adversary, length):
        # F(0) leaves the predecessor-only on-path class empty and F(N - 1)
        # the position-aware silent one; moving mass to any other length
        # raises H* at the rate of that length's own posterior entropy.
        # H* is linear along each axis there, so forward differences are
        # exact up to rounding.
        _, evaluate = self._evaluator(30, adversary)
        vertex = np.zeros(30)
        vertex[length] = 1.0
        degree, gradient = evaluate(vertex)
        step = 1e-6
        forward = [(evaluate(vertex + step * unit)[0] - degree) / step for unit in np.eye(30)]
        np.testing.assert_allclose(gradient, forward, rtol=1e-6)

    def test_rejects_lengths_beyond_a_simple_path(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=10))
        with pytest.raises(ConfigurationError, match="within"):
            analyzer.degree_gradient(range(11))
        with pytest.raises(ConfigurationError, match="within"):
            analyzer.degree_gradient([-1, 0, 1])
