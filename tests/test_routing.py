"""Tests for rerouting paths, node selectors, and path-selection strategies."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import PathModel
from repro.core.topology import Topology
from repro.distributions import FixedLength, GeometricLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.path import ReroutingPath
from repro.routing.selection import CyclePathSelector, SimplePathSelector, selector_for
from repro.routing.strategies import PathSelectionStrategy, deployed_system_strategies


class TestReroutingPath:
    def test_basic_structure(self):
        path = ReroutingPath(sender=0, intermediates=(3, 5, 2))
        assert path.length == 3
        assert path.is_simple
        assert path.nodes_on_path == frozenset({0, 3, 5, 2})

    def test_first_hop_cannot_be_sender(self):
        with pytest.raises(ConfigurationError):
            ReroutingPath(sender=0, intermediates=(0, 1))

    def test_no_immediate_self_forwarding(self):
        with pytest.raises(ConfigurationError):
            ReroutingPath(sender=0, intermediates=(1, 1))

    def test_cycle_paths_are_not_simple(self):
        path = ReroutingPath(sender=0, intermediates=(1, 2, 1))
        assert not path.is_simple
        assert path.follows_no_self_forwarding
        assert path.conforms_to(PathModel.CYCLE_ALLOWED)
        assert not path.conforms_to(PathModel.SIMPLE)

    @staticmethod
    def _raw_path(sender: int, intermediates: tuple[int, ...]) -> ReroutingPath:
        """Build a path without running ``__post_init__`` validation.

        Stands in for any instance created around the constructor
        (deserialisation, copy protocols): ``conforms_to`` must still judge
        it correctly.
        """
        path = ReroutingPath.__new__(ReroutingPath)
        object.__setattr__(path, "sender", sender)
        object.__setattr__(path, "intermediates", intermediates)
        return path

    def test_conforms_to_rejects_self_forwarding_cycles(self):
        # Regression: conforms_to(CYCLE_ALLOWED) used to return a constant
        # True; it must enforce the selector's no-self-forwarding rule.
        repeat = self._raw_path(0, (1, 1, 2))
        assert not repeat.follows_no_self_forwarding
        assert not repeat.conforms_to(PathModel.CYCLE_ALLOWED)
        assert not repeat.conforms_to(PathModel.SIMPLE)
        first_hop = self._raw_path(0, (0, 2))
        assert not first_hop.conforms_to(PathModel.CYCLE_ALLOWED)
        legal = self._raw_path(0, (1, 2, 1))
        assert legal.conforms_to(PathModel.CYCLE_ALLOWED)

    def test_predecessor_and_successor(self):
        path = ReroutingPath(sender=0, intermediates=(3, 5, 2))
        assert path.predecessor_of(1) == 0
        assert path.predecessor_of(2) == 3
        assert path.successor_of(2) == 2
        assert path.successor_of(3) is None
        with pytest.raises(ConfigurationError):
            path.predecessor_of(4)

    def test_positions_of(self):
        path = ReroutingPath(sender=0, intermediates=(1, 2, 1))
        assert path.positions_of(1) == (1, 3)
        assert path.positions_of(9) == ()

    def test_routable_on_topology(self):
        path = ReroutingPath(sender=0, intermediates=(1, 2))
        assert path.routable_on(Topology.clique(4))
        assert path.routable_on(None)
        # Edges 0-1, 1-3 and 3-2: the path 0 -> 1 -> 2 needs the missing 1-2.
        sparse = Topology(((0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1), (0, 1, 1, 0)))
        assert not path.routable_on(sparse)
        assert ReroutingPath(sender=0, intermediates=(1, 3, 2)).routable_on(sparse)


class TestSelectors:
    def test_simple_selector_produces_simple_paths(self, rng):
        selector = SimplePathSelector(10)
        for _ in range(50):
            path = selector.select(sender=3, length=5, rng=rng)
            assert path.is_simple
            assert path.length == 5
            assert 3 not in path.intermediates

    def test_simple_selector_respects_max_length(self, rng):
        selector = SimplePathSelector(5)
        assert selector.max_length() == 4
        with pytest.raises(ConfigurationError):
            selector.select(0, 5, rng)

    def test_cycle_selector_never_self_forwards(self, rng):
        selector = CyclePathSelector(6)
        for _ in range(50):
            path = selector.select(sender=2, length=8, rng=rng)
            assert path.length == 8
            assert path.intermediates[0] != 2
            for a, b in zip(path.intermediates, path.intermediates[1:]):
                assert a != b

    def test_cycle_selector_can_revisit_the_sender(self, rng):
        selector = CyclePathSelector(4)
        revisited = False
        for _ in range(200):
            path = selector.select(sender=1, length=6, rng=rng)
            if 1 in path.intermediates:
                revisited = True
                break
        assert revisited

    def test_factory(self):
        assert isinstance(selector_for(PathModel.SIMPLE, 5), SimplePathSelector)
        assert isinstance(selector_for(PathModel.CYCLE_ALLOWED, 5), CyclePathSelector)

    def test_zero_length_path(self, rng):
        assert SimplePathSelector(5).select(0, 0, rng).length == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=6), st.integers(0, 10_000))
    def test_simple_selection_uniform_first_hop(self, n_nodes, length, seed):
        if length > n_nodes - 1:
            length = n_nodes - 1
        selector = SimplePathSelector(n_nodes)
        path = selector.select(0, length, rng=seed)
        assert path.length == length
        assert path.is_simple


class TestPathSelectionStrategy:
    def test_build_path_respects_distribution(self, rng):
        strategy = PathSelectionStrategy("test", FixedLength(4))
        path = strategy.build_path(sender=2, n_nodes=10, rng=rng)
        assert path.length == 4

    def test_effective_distribution_truncates_for_simple_paths(self):
        strategy = PathSelectionStrategy("crowdslike", GeometricLength(0.9, minimum=1))
        effective = strategy.effective_distribution(n_nodes=10)
        assert effective.max_length <= 9

    def test_cycle_strategy_is_not_truncated(self):
        strategy = PathSelectionStrategy(
            "crowdslike", GeometricLength(0.9, minimum=1), path_model=PathModel.CYCLE_ALLOWED
        )
        assert strategy.effective_distribution(10) == strategy.distribution

    def test_invalid_sender_rejected(self, rng):
        strategy = PathSelectionStrategy("test", FixedLength(2))
        with pytest.raises(ConfigurationError):
            strategy.build_path(sender=10, n_nodes=10, rng=rng)

    def test_empirical_length_distribution_matches(self, rng):
        strategy = PathSelectionStrategy("test", UniformLength(1, 4))
        counts = collections.Counter(
            strategy.build_path(0, 12, rng).length for _ in range(2000)
        )
        for length in (1, 2, 3, 4):
            assert counts[length] / 2000 == pytest.approx(0.25, abs=0.05)

    def test_describe_mentions_distribution(self):
        text = PathSelectionStrategy("X", UniformLength(2, 6)).describe()
        assert "U(2, 6)" in text


class TestDeployedStrategies:
    def test_catalogue_contains_surveyed_systems(self):
        strategies = deployed_system_strategies()
        for key in ("anonymizer", "freedom", "pipenet", "onion-routing-1", "onion-routing-2", "crowds"):
            assert key in strategies

    def test_onion_routing_1_is_five_fixed_hops(self):
        strategy = deployed_system_strategies()["onion-routing-1"]
        assert strategy.distribution == FixedLength(5)
        assert strategy.path_model is PathModel.SIMPLE

    def test_freedom_is_three_fixed_hops(self):
        assert deployed_system_strategies()["freedom"].distribution == FixedLength(3)

    def test_crowds_expected_length_matches_coin(self):
        strategy = deployed_system_strategies()["crowds"]
        assert strategy.distribution.mean() == pytest.approx(1 + 0.75 / 0.25, abs=1e-6)

    def test_cycle_variants_optional(self):
        assert "crowds-cycles" not in deployed_system_strategies()
        assert "crowds-cycles" in deployed_system_strategies(include_cycle_variants=True)

    def test_cycle_catalogue_contains_hordes(self):
        strategies = deployed_system_strategies(include_cycle_variants=True)
        assert "hordes" not in deployed_system_strategies()
        for key in ("crowds-cycles", "onion-routing-2-cycles", "hordes"):
            assert strategies[key].path_model is PathModel.CYCLE_ALLOWED
        # Hordes' forward path is Crowds' coin flip verbatim.
        assert strategies["hordes"].distribution == strategies["crowds-cycles"].distribution
