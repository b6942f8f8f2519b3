"""Integration tests: the discrete-event engine and Monte-Carlo experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.observation import observation_from_path
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.distributions import FixedLength, TwoPointLength
from repro.exceptions import ConfigurationError
from repro.protocols import (
    CrowdsProtocol,
    FreedomProtocol,
    OnionRoutingI,
    PipeNetProtocol,
)
from repro.routing.strategies import PathSelectionStrategy, deployed_system_strategies
from repro.simulation import (
    AnonymousCommunicationSystem,
    ProtocolMonteCarlo,
    StrategyMonteCarlo,
    summarize_samples,
)


class TestEngine:
    def test_mismatched_protocol_size_rejected(self):
        model = SystemModel(n_nodes=10)
        with pytest.raises(ConfigurationError):
            AnonymousCommunicationSystem(model=model, protocol=FreedomProtocol(12))

    def test_send_produces_consistent_records(self):
        model = SystemModel(n_nodes=15, n_compromised=2)
        system = AnonymousCommunicationSystem(model=model, protocol=OnionRoutingI(15))
        outcome = system.send(4, payload="p", rng=11)
        assert outcome.delivery.sender == 4
        assert outcome.delivery.path_length == 5
        assert outcome.delivery.protocol == "Onion Routing I"
        assert system.average_path_length() == 5.0
        # One link transmission per hop plus the final delivery to the receiver.
        assert system.total_transmissions == 6

    def test_invalid_sender_rejected(self):
        model = SystemModel(n_nodes=10)
        system = AnonymousCommunicationSystem(model=model, protocol=FreedomProtocol(10))
        with pytest.raises(ConfigurationError):
            system.send(10)

    def test_adversary_observation_matches_reference(self):
        """The observation collected through real message passing equals the
        observation derived analytically from the same path."""
        model = SystemModel(n_nodes=15, n_compromised=3)
        system = AnonymousCommunicationSystem(model=model, protocol=FreedomProtocol(15))
        rng = np.random.default_rng(2)
        for _ in range(20):
            sender = int(rng.integers(0, 15))
            outcome = system.send(sender, rng=rng)
            reference = observation_from_path(
                sender, outcome.delivery.path, model.compromised_nodes()
            )
            assert outcome.observation.to_fragments() == reference.to_fragments()

    def test_send_many(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        system = AnonymousCommunicationSystem(model=model, protocol=FreedomProtocol(10))
        outcomes = system.send_many([1, 2, 3], rng=5)
        assert [o.delivery.sender for o in outcomes] == [1, 2, 3]

    def test_compromised_sender_produces_origin_observation(self):
        model = SystemModel(n_nodes=10, n_compromised=2)
        system = AnonymousCommunicationSystem(model=model, protocol=FreedomProtocol(10))
        outcome = system.send(0, rng=3)  # node 0 is compromised
        assert outcome.observation.origin_node == 0

    def test_crowds_paths_terminate(self):
        model = SystemModel(n_nodes=12, n_compromised=1)
        system = AnonymousCommunicationSystem(
            model=model, protocol=CrowdsProtocol(12, p_forward=0.8)
        )
        outcome = system.send(5, rng=1)
        assert outcome.delivery.path_length >= 1


class TestDeliveryRecording:
    def _system(self, **kwargs):
        model = SystemModel(n_nodes=10, n_compromised=1)
        return AnonymousCommunicationSystem(
            model=model, protocol=FreedomProtocol(10), **kwargs
        )

    def test_default_retains_every_record(self):
        system = self._system()
        system.send_many(list(range(8)), rng=1)
        assert len(system.deliveries) == 8
        assert system.total_deliveries == 8
        assert system.average_path_length() == 3.0

    def test_bounded_window_keeps_only_recent_records(self):
        system = self._system(max_recorded_deliveries=3)
        system.send_many(list(range(8)), rng=1)
        assert len(system.deliveries) == 3
        assert system.total_deliveries == 8
        # Freedom is fixed-length, so the window mean equals the global mean.
        assert system.average_path_length() == 3.0
        # The retained records are the most recent ones.
        assert [d.sender for d in system.deliveries] == [5, 6, 7]

    def test_recording_disabled_keeps_running_statistics(self):
        system = self._system(record_deliveries=False)
        system.send_many(list(range(8)), rng=1)
        assert len(system.deliveries) == 0
        assert system.total_deliveries == 8
        assert system.average_path_length() == 3.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            self._system(max_recorded_deliveries=0)


class TestStrategyMonteCarlo:
    def test_estimate_matches_closed_form(self):
        model = SystemModel(n_nodes=25, n_compromised=1)
        strategy = PathSelectionStrategy("F(4)", FixedLength(4))
        report = StrategyMonteCarlo(model, strategy).run(3000, rng=11)
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(4))
        assert report.estimate.contains(exact, slack=0.01)
        assert report.mean_path_length == pytest.approx(4.0)

    def test_estimate_for_multiple_compromised_is_lower(self):
        strategy = PathSelectionStrategy("F(4)", FixedLength(4))
        single = StrategyMonteCarlo(
            SystemModel(n_nodes=25, n_compromised=1), strategy
        ).run(1500, rng=3)
        triple = StrategyMonteCarlo(
            SystemModel(n_nodes=25, n_compromised=3), strategy
        ).run(1500, rng=3)
        assert triple.degree_bits < single.degree_bits

    def test_identification_rate_reported(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        strategy = PathSelectionStrategy("F(1)", FixedLength(1))
        report = StrategyMonteCarlo(model, strategy).run(800, rng=5)
        # Identification happens when the sender or the single proxy is
        # compromised: roughly 2/N of the time.
        assert report.identification_rate == pytest.approx(0.2, abs=0.06)

    def test_cycle_strategies_run_for_one_compromised_node(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        strategy = deployed_system_strategies(include_cycle_variants=True)["crowds-cycles"]
        report = StrategyMonteCarlo(model, strategy).run(200, rng=4)
        assert report.n_trials == 200
        assert report.mean_path_length > 0.0

    def test_cycle_strategies_accepted_for_multiple_compromised(self):
        # The C > 1 gate fell with the multi-node cycle inference engine.
        model = SystemModel(n_nodes=10, n_compromised=2)
        strategy = deployed_system_strategies(include_cycle_variants=True)["crowds-cycles"]
        report = StrategyMonteCarlo(model, strategy).run(100, rng=4)
        assert report.n_trials == 100
        assert 0.0 <= report.degree_bits <= model.max_entropy


class TestProtocolMonteCarlo:
    def test_freedom_matches_closed_form(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = ProtocolMonteCarlo(model, lambda: FreedomProtocol(20)).run(400, rng=9)
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(3))
        assert report.estimate.contains(exact, slack=0.05)

    def test_pipenet_matches_closed_form(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = ProtocolMonteCarlo(model, lambda: PipeNetProtocol(20)).run(400, rng=10)
        exact = AnonymityAnalyzer(model).anonymity_degree(TwoPointLength(3, 4, 0.5))
        assert report.estimate.contains(exact, slack=0.05)

    def test_cycle_protocols_run_for_one_compromised_node(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = ProtocolMonteCarlo(model, lambda: CrowdsProtocol(20)).run(10, rng=1)
        assert report.n_trials == 10

    def test_cycle_protocols_accepted_for_multiple_compromised(self):
        model = SystemModel(n_nodes=20, n_compromised=3)
        report = ProtocolMonteCarlo(model, lambda: CrowdsProtocol(20)).run(10, rng=1)
        assert report.n_trials == 10
        assert 0.0 <= report.degree_bits <= model.max_entropy


@pytest.mark.parametrize("n_trials", [0, 2.5, True])
@pytest.mark.parametrize(
    "experiment",
    [
        lambda model: StrategyMonteCarlo(model, PathSelectionStrategy("F(2)", FixedLength(2))),
        lambda model: ProtocolMonteCarlo(model, lambda: FreedomProtocol(10)),
    ],
    ids=["strategy", "protocol"],
)
def test_invalid_trial_count(experiment, n_trials):
    model = SystemModel(n_nodes=10, n_compromised=1)
    with pytest.raises(ConfigurationError):
        experiment(model).run(n_trials)


class TestSummaries:
    def test_summarize_samples(self):
        estimate = summarize_samples([1.0, 2.0, 3.0, 4.0])
        assert estimate.mean == pytest.approx(2.5)
        assert estimate.ci_low < 2.5 < estimate.ci_high
        assert estimate.contains(2.5)
        assert estimate.n_samples == 4

    def test_single_sample_has_infinite_error(self):
        estimate = summarize_samples([1.0])
        assert estimate.std_error == float("inf")

    def test_empty_samples(self):
        estimate = summarize_samples([])
        assert estimate.n_samples == 0
