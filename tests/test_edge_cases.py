"""Edge-case and failure-injection tests across module boundaries.

These cover the corners the mainline tests do not reach: degenerate system
sizes, adversaries with partial information, observations produced under
non-clique topologies and non-constant latencies, inconsistent inputs fed to
the inference engine, and configuration mistakes a downstream user is likely
to make.
"""

from __future__ import annotations


import pytest

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import (
    HopReport,
    Observation,
    ReceiverReport,
    observation_from_path,
)
from repro.core.anonymity import AnonymityAnalyzer, anonymity_degree
from repro.core.enumeration import enumerate_anonymity_degree
from repro.core.model import AdversaryModel, SystemModel
from repro.core.topology import Topology
from repro.distributions import CategoricalLength, FixedLength, UniformLength
from repro.exceptions import InferenceError, ObservationError, SimulationError
from repro.network.clock import ExponentialLatency
from repro.network.transport import Transport
from repro.protocols import FreedomProtocol, OnionRoutingI
from repro.simulation import AnonymousCommunicationSystem


class TestTinySystems:
    def test_three_node_system_has_no_single_hop_anonymity(self):
        # With N=3 and one compromised node the adversary always wins on a
        # single-hop path: either the sender or the relay is compromised, or
        # both honest nodes are accounted for (one relayed, so the other sent).
        value = anonymity_degree(3, FixedLength(1))
        assert value == pytest.approx(0.0)
        assert value == pytest.approx(enumerate_anonymity_degree(3, FixedLength(1)))

    def test_two_node_system_has_no_anonymity(self):
        # Two nodes, one compromised: the only other node is always exposed.
        assert anonymity_degree(2, FixedLength(1)) == pytest.approx(0.0)

    def test_four_node_interior_events(self):
        value = anonymity_degree(4, FixedLength(3))
        reference = enumerate_anonymity_degree(4, FixedLength(3))
        assert value == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("n_nodes", [3, 4, 5])
    def test_small_systems_match_enumeration_for_every_feasible_fixed_length(self, n_nodes):
        for length in range(0, n_nodes):
            assert anonymity_degree(n_nodes, FixedLength(length)) == pytest.approx(
                enumerate_anonymity_degree(n_nodes, FixedLength(length)), abs=1e-12
            )


class TestPartialInformationAdversaries:
    def test_receiver_not_compromised_increases_anonymity(self):
        baseline = enumerate_anonymity_degree(7, FixedLength(3))
        without_receiver = enumerate_anonymity_degree(
            7, FixedLength(3), receiver_compromised=False
        )
        assert without_receiver >= baseline - 1e-12

    def test_position_aware_inference_requires_positions(self):
        model = SystemModel(
            n_nodes=10, n_compromised=1, adversary=AdversaryModel.POSITION_AWARE
        )
        inference = BayesianPathInference(model, FixedLength(3))
        observation = observation_from_path(5, (3, 0, 7), {0}).without_positions()
        with pytest.raises(InferenceError):
            inference.posterior(observation)

    def test_position_aware_inference_with_positions(self):
        model = SystemModel(
            n_nodes=10, n_compromised=1, adversary=AdversaryModel.POSITION_AWARE
        )
        inference = BayesianPathInference(model, FixedLength(3))
        observation = observation_from_path(5, (3, 0, 7), {0})
        posterior = inference.posterior(observation)
        # Position 2 is known, so the predecessor (node 3) is excluded along
        # with the successor, the compromised node, and the receiver's report.
        assert posterior.probability(3) == 0.0
        assert posterior.probability(0) == 0.0
        assert posterior.probability(5) > 0.0

    def test_predecessor_only_ignores_receiver_report(self):
        model = SystemModel(
            n_nodes=10, n_compromised=1, adversary=AdversaryModel.PREDECESSOR_ONLY
        )
        inference = BayesianPathInference(model, FixedLength(2))
        silent = observation_from_path(5, (3, 4), {0})
        posterior = inference.posterior(silent)
        # Nothing observed by the compromised node: uniform over the nine
        # honest candidates, regardless of what the receiver saw.
        assert posterior.probability(0) == 0.0
        assert posterior.probability(5) == pytest.approx(1.0 / 9.0)
        assert posterior.probability(4) == pytest.approx(1.0 / 9.0)


class TestInconsistentObservations:
    def test_impossible_observation_raises(self):
        model = SystemModel(n_nodes=8, n_compromised=1)
        inference = BayesianPathInference(model, FixedLength(2))
        # The compromised node claims to be the last intermediate of a
        # two-hop path, but the receiver reports a different predecessor:
        # no candidate sender can explain this.
        observation = Observation(
            hop_reports=(HopReport(1.0, 0, 3, "RECEIVER"),),
            receiver_report=ReceiverReport(2.0, 5),
        )
        with pytest.raises(InferenceError):
            inference.posterior(observation)

    def test_conflicting_position_reports_raise(self):
        model = SystemModel(
            n_nodes=8, n_compromised=2, adversary=AdversaryModel.POSITION_AWARE
        )
        inference = BayesianPathInference(model, FixedLength(3))
        observation = Observation(
            hop_reports=(
                HopReport(1.0, 0, 3, 4, position=1),
                HopReport(2.0, 1, 5, 6, position=1),
            ),
            receiver_report=ReceiverReport(3.0, 6),
        )
        with pytest.raises(InferenceError):
            inference.posterior(observation)

    def test_cycle_observation_rejected_by_fragments(self):
        # A node reporting itself twice on a simple path is a contradiction.
        observation = Observation(
            hop_reports=(
                HopReport(1.0, 0, 3, 4),
                HopReport(2.0, 0, 5, 6),
            ),
        )
        with pytest.raises(ObservationError):
            observation.to_fragments()


class TestRestrictedTopologiesAndLatencies:
    def test_simulation_on_sparse_topology_rejects_unroutable_paths(self):
        # Onion Routing picks arbitrary routes; on a ring topology most of
        # them are unroutable, which must surface as a simulation error rather
        # than silently succeeding.
        n = 8
        model = SystemModel(n_nodes=n, n_compromised=1, topology=Topology.ring(n))
        system = AnonymousCommunicationSystem(
            model=model, protocol=OnionRoutingI(n, route_length=3)
        )
        failures = 0
        for seed in range(10):
            try:
                system.send(2, rng=seed)
            except SimulationError:
                failures += 1
        assert failures > 0

    def test_ring_8_onion_routing_i_route_3_sends_from_2_hop_only_over_ring_edges(self):
        # The simulator used to route on a clique of its own whatever the
        # model's topology, so all ten sends were delivered, over routes such
        # as (1, 7, 3) that follow no ring edge.
        ring = Topology.ring(8)
        model = SystemModel(n_nodes=8, n_compromised=1, topology=ring)
        system = AnonymousCommunicationSystem(
            model=model, protocol=OnionRoutingI(8, route_length=3)
        )
        for seed in range(10):
            try:
                system.send(2, rng=seed)
            except SimulationError:
                pass
        hops = [
            (entry.source, entry.destination)
            for entry in system.transport.log
            if entry.destination != Transport.RECEIVER_ADDRESS
        ]
        assert hops
        assert all(destination in ring.neighbors(source) for source, destination in hops)

    def test_random_latency_preserves_report_ordering(self):
        model = SystemModel(n_nodes=12, n_compromised=3)
        system = AnonymousCommunicationSystem(
            model=model,
            protocol=FreedomProtocol(12),
            latency=ExponentialLatency(mean=0.3),
        )
        outcome = system.send(6, rng=21)
        timestamps = [report.timestamp for report in outcome.observation.hop_reports]
        assert timestamps == sorted(timestamps)
        reference = observation_from_path(
            6, outcome.delivery.path, model.compromised_nodes()
        )
        assert outcome.observation.to_fragments() == reference.to_fragments()


class TestDistributionSystemInteraction:
    def test_distribution_with_gap_in_support(self):
        distribution = CategoricalLength({1: 0.5, 6: 0.5})
        closed = anonymity_degree(8, distribution)
        enumerated = enumerate_anonymity_degree(8, distribution)
        assert closed == pytest.approx(enumerated, abs=1e-10)

    def test_analyzer_results_are_deterministic(self):
        analyzer = AnonymityAnalyzer(SystemModel(n_nodes=64))
        first = analyzer.anonymity_degree(UniformLength(3, 30))
        second = analyzer.anonymity_degree(UniformLength(3, 30))
        assert first == second

    def test_degree_monotone_in_system_size_for_fixed_strategy(self):
        values = [anonymity_degree(n, FixedLength(3)) for n in (10, 20, 40, 80)]
        assert values == sorted(values)
