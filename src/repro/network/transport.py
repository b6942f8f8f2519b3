"""Point-to-point transport between nodes.

The transport layer is intentionally simple — the paper abstracts the real
Internet into a clique of reliable links — but it is a real component of the
simulator: it checks reachability against the topology, samples per-hop
latencies, and notifies the adversary coordinator of every forwarding event so
that compromised nodes can file their reports exactly as the threat model
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.collector import AdversaryCoordinator
from repro.core.topology import Topology
from repro.exceptions import ConfigurationError, SimulationError
from repro.network.clock import ConstantLatency, LatencyModel, SimulationClock
from repro.network.message import Message
from repro.network.node import NodeRegistry
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["Transport", "TransmissionLog"]


@dataclass(frozen=True)
class TransmissionLog:
    """One link-level transmission, kept for overhead accounting and debugging."""

    message_id: int
    source: int
    destination: int | str
    sent_at: float
    arrived_at: float


@dataclass
class Transport:
    """Reliable unicast transport over a topology with a latency model.

    ``topology=None`` is the paper's clique over the registry's nodes.
    """

    topology: Topology | None
    registry: NodeRegistry
    clock: SimulationClock = field(default_factory=SimulationClock)
    latency: LatencyModel = field(default_factory=ConstantLatency)
    adversary: AdversaryCoordinator | None = None
    log: list[TransmissionLog] = field(default_factory=list)

    RECEIVER_ADDRESS = "RECEIVER"

    def send_between_nodes(
        self,
        message: Message,
        source: int,
        destination: int,
        rng: RandomSource = None,
    ) -> float:
        """Deliver ``message`` from one node to another; returns the arrival time."""
        if not self._linked(source, destination):
            raise SimulationError(
                f"node {source} cannot reach node {destination} on this topology"
            )
        return self._transmit(message, source, destination, rng)

    def _linked(self, source: int, destination: int) -> bool:
        """One hop apart; on the clique that is any two distinct nodes."""
        if self.topology is not None:
            return self.topology.are_connected(source, destination)
        n_nodes = len(self.registry)
        for node in (source, destination):
            if not 0 <= node < n_nodes:
                raise ConfigurationError(
                    f"node {node} is outside the valid range [0, {n_nodes})"
                )
        return source != destination

    def send_to_receiver(self, message: Message, source: int, rng: RandomSource = None) -> float:
        """Deliver ``message`` from a node to the (external) receiver."""
        return self._transmit(message, source, self.RECEIVER_ADDRESS, rng)

    def _transmit(
        self,
        message: Message,
        source: int,
        destination: int | str,
        rng: RandomSource,
    ) -> float:
        generator = ensure_rng(rng)
        sent_at = self.clock.now
        arrival = sent_at + self.latency.sample(generator)
        self.clock.advance_to(arrival)
        self.log.append(
            TransmissionLog(
                message_id=message.message_id,
                source=source,
                destination=destination,
                sent_at=sent_at,
                arrived_at=arrival,
            )
        )
        return arrival

    @property
    def transmissions(self) -> int:
        """Total number of link-level transmissions (the paper's overhead concern)."""
        return len(self.log)
