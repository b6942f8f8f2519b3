"""Tests for the anonymity metrics and the analysis (sweep/compare/report) layer."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    compare_deployed_systems,
    compare_strategies,
    fixed_length_sweep,
    render_comparison,
    render_event_breakdown,
    render_key_points,
    render_sweep,
    uniform_mean_sweep,
    uniform_width_sweep,
)
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.distributions import FixedLength, UniformLength
from repro.metrics import normalized_degree
from repro.routing.strategies import PathSelectionStrategy


class TestMetrics:
    def test_normalized_degree_degenerate_system(self):
        assert normalized_degree(1.0, 1) == 0.0

    @pytest.mark.parametrize("n_nodes", [2, 8, 50])
    def test_normalized_degree_maps_zero_to_maximum_onto_the_unit_interval(self, n_nodes):
        maximum = math.log2(n_nodes)
        assert normalized_degree(0.0, n_nodes) == 0.0
        assert normalized_degree(maximum, n_nodes) == 1.0
        assert normalized_degree(maximum / 2, n_nodes) == pytest.approx(0.5)


class TestSweeps:
    def test_fixed_length_sweep_matches_analyzer(self):
        model = SystemModel(n_nodes=30)
        sweep = fixed_length_sweep(model, [1, 3, 5])
        analyzer = AnonymityAnalyzer(model)
        assert sweep.series[0].values[1] == pytest.approx(
            analyzer.anonymity_degree(FixedLength(3))
        )
        assert sweep.x_values == (1.0, 3.0, 5.0)

    def test_uniform_width_sweep_handles_infeasible_widths(self):
        model = SystemModel(n_nodes=20)
        sweep = uniform_width_sweep(model, lower_bounds=[5], widths=[0, 10, 30])
        values = sweep.series[0].values
        assert not math.isnan(values[0])
        assert math.isnan(values[2])  # 5 + 30 exceeds the max simple path of 19

    def test_uniform_width_sweep_matches_analyzer_bit_for_bit(self):
        model = SystemModel(n_nodes=20)
        sweep = uniform_width_sweep(model, lower_bounds=[1, 4], widths=[0, 3, 15, 16])
        degree = AnonymityAnalyzer(model).anonymity_degree
        for low, series in zip([1, 4], sweep.series):
            assert series.label == f"U({low}, {low}+L)"
            for width, value in zip([0, 3, 15, 16], series.values):
                if low + width > model.max_simple_path_length:
                    assert math.isnan(value)
                else:
                    assert value == degree(UniformLength(low, low + width))
        # U(4, 19) and U(4, 20) bracket the longest simple path of 19 hops.
        assert not math.isnan(sweep.series[1].values[2])
        assert math.isnan(sweep.series[1].values[3])

    def test_uniform_mean_sweep_matches_analyzer_bit_for_bit(self):
        model = SystemModel(n_nodes=12)
        means = [1, 3, 6, 11, 12]
        sweep = uniform_mean_sweep(model, lower_bounds=[1, 3], means=means)
        degree = AnonymityAnalyzer(model).anonymity_degree
        fixed = sweep.series_by_label("F(L)").values
        for mean, value in zip(means, fixed):
            if mean > model.max_simple_path_length:
                assert math.isnan(value)
            else:
                assert value == degree(FixedLength(mean))
        for low in (1, 3):
            values = sweep.series_by_label(f"U({low}, 2L-{low})").values
            for mean, value in zip(means, values):
                high = 2 * mean - low
                if high < low or high > model.max_simple_path_length:
                    assert math.isnan(value)
                else:
                    assert value == degree(UniformLength(low, high))
        # F(12) exceeds the longest simple path of 11 hops, U(3, -1) is
        # empty, and U(1, 11) just fits.
        assert math.isnan(fixed[4])
        assert math.isnan(sweep.series_by_label("U(3, 2L-3)").values[0])
        assert not math.isnan(sweep.series_by_label("U(1, 2L-1)").values[2])

    def test_fixed_length_sweep_orders_the_adversaries(self):
        lengths = range(1, 40)
        degrees = {
            adversary: fixed_length_sweep(
                SystemModel(n_nodes=40, adversary=adversary), lengths
            ).series[0].values
            for adversary in AdversaryModel
        }
        position_aware = degrees[AdversaryModel.POSITION_AWARE]
        full_bayes = degrees[AdversaryModel.FULL_BAYES]
        predecessor_only = degrees[AdversaryModel.PREDECESSOR_ONLY]
        for index in range(len(lengths)):
            assert position_aware[index] <= full_bayes[index] <= predecessor_only[index]
        # At F(6) each adversary learns a different amount.
        assert position_aware[5] < full_bayes[5] < predecessor_only[5]

    def test_uniform_mean_sweep_includes_fixed_reference(self):
        model = SystemModel(n_nodes=30)
        sweep = uniform_mean_sweep(model, lower_bounds=[2], means=[5, 10])
        labels = {series.label for series in sweep.series}
        assert labels == {"F(L)", "U(2, 2L-2)"}

    def test_sweep_lookup_by_label(self):
        model = SystemModel(n_nodes=20)
        sweep = fixed_length_sweep(model, [2, 4])
        assert sweep.series_by_label("F(l)").values == sweep.series[0].values
        with pytest.raises(KeyError):
            sweep.series_by_label("missing")


class TestComparisons:
    def test_compare_strategies_sorted_descending(self):
        model = SystemModel(n_nodes=40)
        strategies = {
            "a": PathSelectionStrategy("A", FixedLength(1)),
            "b": PathSelectionStrategy("B", FixedLength(10)),
            "c": PathSelectionStrategy("C", UniformLength(2, 12)),
        }
        rows = compare_strategies(model, strategies)
        degrees = [row.degree_bits for row in rows]
        assert degrees == sorted(degrees, reverse=True)
        assert {row.name for row in rows} == {"A", "B", "C"}

    def test_compare_deployed_systems_includes_survey(self):
        rows = compare_deployed_systems(SystemModel(n_nodes=60))
        names = {row.name for row in rows}
        assert {"Crowds", "Freedom", "Onion Routing I", "PipeNet", "Anonymizer"}.issubset(names)
        for row in rows:
            assert 0.0 <= row.normalized <= 1.0

    @pytest.mark.parametrize(
        "n_nodes, left_out",
        [
            (2, {"Freedom", "PipeNet", "Onion Routing I"}),
            (3, {"Freedom", "PipeNet", "Onion Routing I"}),
            (4, {"Onion Routing I"}),
            (5, {"Onion Routing I"}),
            (6, set()),
        ],
        ids=["n2", "n3", "n4", "n5", "n6"],
    )
    def test_compare_deployed_systems_ranks_the_systems_with_a_feasible_length(
        self, n_nodes, left_out
    ):
        # Freedom's F(3) and PipeNet's TwoPoint(3, 4) need N >= 4; Onion
        # Routing I's F(5) needs N >= 6.
        survey = {
            "Anonymizer", "LPWA", "Crowds", "Onion Routing II", "Freedom", "PipeNet",
            "Onion Routing I",
        }
        rows = compare_deployed_systems(SystemModel(n_nodes=n_nodes))
        assert {row.name for row in rows} == survey - left_out
        degrees = [row.degree_bits for row in rows]
        assert degrees == sorted(degrees, reverse=True)

    def test_crowds_truncation_applied_in_comparison(self):
        rows = compare_deployed_systems(SystemModel(n_nodes=10))
        crowds = next(row for row in rows if row.name == "Crowds")
        assert "L<=9" in crowds.distribution


class TestReportRendering:
    def test_render_sweep_contains_values(self):
        model = SystemModel(n_nodes=20)
        sweep = fixed_length_sweep(model, [2, 4])
        text = render_sweep(sweep, title="demo")
        assert "demo" in text
        assert "F(l)" in text
        assert f"{sweep.series[0].values[0]:.4f}" in text

    def test_render_comparison(self):
        rows = compare_deployed_systems(SystemModel(n_nodes=30))
        text = render_comparison(rows, title="ranked")
        assert "ranked" in text and "Crowds" in text

    def test_render_event_breakdown(self):
        result = AnonymityAnalyzer(SystemModel(n_nodes=30)).analyze(FixedLength(4))
        text = render_event_breakdown(result)
        assert "anonymity degree" in text
        assert "interior" in text

    def test_render_key_points(self):
        text = render_key_points({"alpha": 1, "beta": "two"}, title="points")
        assert "points" in text and "alpha" in text and "two" in text
