"""Tests for the network substrate: nodes, topologies, clock, transport."""

from __future__ import annotations

import pytest

from repro.adversary.collector import AdversaryCoordinator
from repro.core.topology import Topology
from repro.exceptions import ConfigurationError, SimulationError
from repro.network.clock import (
    ConstantLatency,
    ExponentialLatency,
    SimulationClock,
    UniformLatency,
)
from repro.network.message import DeliveryRecord, Message
from repro.network.node import Node, NodeRegistry
from repro.network.transport import Transport


def path_graph(n_nodes: int) -> Topology:
    """The path ``0 - 1 - ... - n_nodes-1``."""
    return Topology(
        tuple(
            tuple(int(abs(i - j) == 1) for j in range(n_nodes)) for i in range(n_nodes)
        )
    )


class TestNodeRegistry:
    def test_create_marks_compromised(self):
        registry = NodeRegistry.create(5, compromised={1, 3})
        assert registry.compromised_ids == frozenset({1, 3})
        assert registry.honest_ids == frozenset({0, 2, 4})
        assert len(registry) == 5

    def test_counters(self):
        node = Node(node_id=0)
        node.on_originate()
        node.on_forward()
        node.on_forward()
        assert (node.sent_count, node.forwarded_count) == (1, 2)

    def test_total_forwarded(self):
        registry = NodeRegistry.create(3)
        registry[0].on_forward()
        registry[2].on_forward()
        assert registry.total_forwarded() == 2

    def test_iteration_and_ids(self):
        registry = NodeRegistry.create(4)
        assert registry.node_ids == [0, 1, 2, 3]
        assert sorted(node.node_id for node in registry) == [0, 1, 2, 3]


class TestMessage:
    def test_unique_ids(self):
        assert Message(sender=0).message_id != Message(sender=0).message_id

    def test_record_hop(self):
        message = Message(sender=0)
        message.record_hop(3)
        message.record_hop(5)
        assert message.hops_taken == [3, 5]
        assert message.path_length_so_far == 2

    def test_delivery_record_path_length(self):
        record = DeliveryRecord(1, 0, (3, 5, 7), 4.0, "test")
        assert record.path_length == 3


class TestCliqueTopology:
    def test_everyone_reachable(self):
        topology = Topology.clique(5)
        assert topology.neighbors(2) == (0, 1, 3, 4)
        assert topology.are_connected(0, 4)
        assert not topology.are_connected(3, 3)

    def test_path_validation(self):
        topology = Topology.clique(5)
        assert topology.validate_path(0, [1, 2, 3])

    def test_rejects_tiny(self):
        with pytest.raises(ConfigurationError):
            Topology.clique(1)

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ConfigurationError, match="outside the valid range"):
            Topology.clique(5).are_connected(9, 0)
        with pytest.raises(ConfigurationError, match="outside the valid range"):
            Topology.clique(5).are_connected(0, -1)


class TestGraphTopology:
    def test_path_graph(self):
        topology = path_graph(4)
        assert topology.neighbors(1) == (0, 2)
        assert not topology.are_connected(0, 3)

    def test_rejects_disconnected(self):
        two_edges = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        with pytest.raises(ConfigurationError):
            Topology(two_edges)

    def test_random_regular(self):
        topology = Topology.random_regular(10, degree=4, seed=1)
        assert all(len(topology.neighbors(node)) == 4 for node in range(10))

    def test_path_validation_respects_edges(self):
        topology = path_graph(4)
        assert topology.validate_path(0, [1, 2, 3])
        assert not topology.validate_path(0, [2])


class TestClockAndLatency:
    def test_clock_monotonicity(self):
        clock = SimulationClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0
        with pytest.raises(ConfigurationError):
            clock.advance_to(1.0)

    def test_constant_latency(self):
        assert ConstantLatency(2.0).sample() == 2.0
        with pytest.raises(ConfigurationError):
            ConstantLatency(0.0)

    def test_exponential_latency_positive(self, rng):
        latency = ExponentialLatency(mean=0.5)
        samples = [latency.sample(rng) for _ in range(100)]
        assert all(s >= 0.0 for s in samples)
        assert 0.2 < sum(samples) / len(samples) < 1.0

    def test_uniform_latency_bounds(self, rng):
        latency = UniformLatency(low=1.0, high=2.0)
        samples = [latency.sample(rng) for _ in range(100)]
        assert all(1.0 <= s <= 2.0 for s in samples)
        with pytest.raises(ConfigurationError):
            UniformLatency(low=2.0, high=1.0)


class TestTransport:
    def _transport(self, n_nodes=5, compromised=frozenset()):
        return Transport(
            topology=None,
            registry=NodeRegistry.create(n_nodes, compromised),
            adversary=AdversaryCoordinator(compromised),
        )

    def test_transmission_advances_clock_and_logs(self):
        transport = self._transport()
        message = Message(sender=0)
        arrival = transport.send_between_nodes(message, 0, 3)
        assert arrival == pytest.approx(1.0)
        assert transport.transmissions == 1
        assert transport.log[0].destination == 3

    def test_send_to_receiver(self):
        transport = self._transport()
        message = Message(sender=0)
        transport.send_between_nodes(message, 0, 3)
        arrival = transport.send_to_receiver(message, 3)
        assert arrival == pytest.approx(2.0)
        assert transport.log[-1].destination == Transport.RECEIVER_ADDRESS

    def test_unreachable_destination_rejected(self):
        transport = Transport(topology=path_graph(4), registry=NodeRegistry.create(4))
        with pytest.raises(SimulationError):
            transport.send_between_nodes(Message(sender=0), 0, 3)

    def test_clique_transport_rejects_self_forwarding_and_strangers(self):
        transport = self._transport()
        with pytest.raises(SimulationError):
            transport.send_between_nodes(Message(sender=0), 2, 2)
        with pytest.raises(ConfigurationError, match="outside the valid range"):
            transport.send_between_nodes(Message(sender=0), 0, 5)
        assert transport.transmissions == 0
