"""The executable anonymous communication system.

:class:`AnonymousCommunicationSystem` wires every substrate together into one
runnable system: the node registry, the transport over the model's topology
(with its latency model), the adversary coordinator with agents at the
compromised nodes and at the receiver, and a rerouting protocol.  Calling
:meth:`send` pushes a real message through the system hop by hop while the
adversary's agents record exactly the tuples prescribed by the paper's threat
model.

The engine is the integration point that lets the reproduction check its
analytical results against "running code": the Monte-Carlo experiments in
:mod:`repro.simulation.experiment` estimate the anonymity degree from the
observations this engine produces and compare the estimate with the closed
form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.adversary.collector import AdversaryCoordinator
from repro.adversary.observation import Observation, RECEIVER
from repro.core.model import SystemModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.network.clock import ConstantLatency, LatencyModel, SimulationClock
from repro.network.message import DeliveryRecord, Message
from repro.network.node import NodeRegistry
from repro.network.transport import Transport
from repro.protocols.base import DELIVER, ReroutingProtocol
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["AnonymousCommunicationSystem", "SendOutcome"]

#: Safety valve: a single message traversing more hops than this indicates a
#: protocol bug (e.g. a coin that never says "deliver").
_MAX_HOPS = 100_000


@dataclass(frozen=True)
class SendOutcome:
    """Everything produced by one end-to-end message transmission."""

    delivery: DeliveryRecord
    observation: Observation
    message: Message


@dataclass
class AnonymousCommunicationSystem:
    """A runnable instance of the paper's system model.

    Messages travel over ``model.topology``, the graph the analytic engines
    price; ``None`` there is the paper's clique.
    """

    model: SystemModel
    protocol: ReroutingProtocol
    latency: LatencyModel = field(default_factory=ConstantLatency)
    compromised: frozenset[int] | None = None
    #: When False, no :class:`DeliveryRecord` is retained at all (running
    #: statistics still feed :meth:`average_path_length`); long batch runs set
    #: this to keep memory flat.
    record_deliveries: bool = True
    #: When set, only the most recent ``max_recorded_deliveries`` records are
    #: retained (a sliding window); ``None`` keeps every record, the
    #: historical behaviour.
    max_recorded_deliveries: int | None = None

    def __post_init__(self) -> None:
        if self.protocol.n_nodes != self.model.n_nodes:
            raise ConfigurationError(
                f"protocol is configured for {self.protocol.n_nodes} nodes but the "
                f"system model has {self.model.n_nodes}"
            )
        if self.compromised is None:
            self.compromised = self.model.compromised_nodes()
        self.compromised = frozenset(self.compromised)
        if len(self.compromised) != self.model.n_compromised:
            raise ConfigurationError(
                f"expected {self.model.n_compromised} compromised nodes, got "
                f"{len(self.compromised)}"
            )
        self.registry = NodeRegistry.create(self.model.n_nodes, self.compromised)
        self.clock = SimulationClock()
        self.adversary = AdversaryCoordinator(
            self.compromised, receiver_compromised=self.model.receiver_compromised
        )
        self.transport = Transport(
            topology=self.model.topology,
            registry=self.registry,
            clock=self.clock,
            latency=self.latency,
            adversary=self.adversary,
        )
        if self.max_recorded_deliveries is not None and self.max_recorded_deliveries < 1:
            raise ConfigurationError(
                f"max_recorded_deliveries must be >= 1 or None, got "
                f"{self.max_recorded_deliveries}"
            )
        #: Retained delivery records: every record (a plain list, the
        #: historical type), a bounded sliding window (a deque), or nothing at
        #: all, depending on the recording options above.
        self.deliveries: list[DeliveryRecord] | deque[DeliveryRecord] = (
            []
            if self.max_recorded_deliveries is None
            else deque(maxlen=self.max_recorded_deliveries)
        )
        self._delivery_count = 0
        self._path_length_total = 0

    # ------------------------------------------------------------------ #
    # Message transmission                                                 #
    # ------------------------------------------------------------------ #

    def send(self, sender: int, payload=None, rng: RandomSource = None) -> SendOutcome:
        """Send one message from ``sender`` to the receiver through the protocol."""
        if not 0 <= sender < self.model.n_nodes:
            raise ConfigurationError(
                f"sender {sender} outside the node range [0, {self.model.n_nodes})"
            )
        generator = ensure_rng(rng)
        message = self.protocol.originate(sender, payload, generator)
        self.registry[sender].on_originate()
        self.adversary.notify_origin(message.message_id, sender)

        current = self.protocol.first_hop(message, generator)
        previous = sender
        hops = 0
        while current != DELIVER:
            if hops >= _MAX_HOPS:
                raise SimulationError(
                    f"{self.protocol.name}: message {message.message_id} exceeded "
                    f"{_MAX_HOPS} hops without reaching the receiver"
                )
            arrival = self.transport.send_between_nodes(
                message, previous, current, generator
            )
            message.record_hop(current)
            self.registry[current].on_forward()
            next_destination = self.protocol.forward(current, message, generator)
            successor = RECEIVER if next_destination == DELIVER else next_destination
            self.adversary.notify_forward(
                message_id=message.message_id,
                node=current,
                timestamp=arrival,
                predecessor=previous,
                successor=successor,
                position=len(message.hops_taken),
            )
            previous, current = current, next_destination
            hops += 1

        delivered_at = self.transport.send_to_receiver(message, previous, generator)
        self.adversary.notify_delivery(message.message_id, delivered_at, previous)

        delivery = DeliveryRecord(
            message_id=message.message_id,
            sender=sender,
            path=tuple(message.hops_taken),
            delivered_at=delivered_at,
            protocol=self.protocol.name,
        )
        self._delivery_count += 1
        self._path_length_total += delivery.path_length
        if self.record_deliveries:
            self.deliveries.append(delivery)
        observation = self.adversary.observation_for(message.message_id)
        return SendOutcome(delivery=delivery, observation=observation, message=message)

    def send_many(
        self, senders: list[int], rng: RandomSource = None
    ) -> list[SendOutcome]:
        """Send one message per entry of ``senders`` and return every outcome."""
        generator = ensure_rng(rng)
        return [self.send(sender, rng=generator) for sender in senders]

    # ------------------------------------------------------------------ #
    # Bookkeeping                                                          #
    # ------------------------------------------------------------------ #

    @property
    def total_transmissions(self) -> int:
        """Link-level transmissions so far (the rerouting overhead)."""
        return self.transport.transmissions

    @property
    def total_deliveries(self) -> int:
        """Messages delivered so far, independent of how many records are retained."""
        return self._delivery_count

    def average_path_length(self) -> float:
        """Mean number of intermediate nodes per delivery.

        Computed over the retained window of :attr:`deliveries` when records
        are kept (so a bounded window reports the *recent* mean, useful for
        drift monitoring on long runs), and over running totals of every
        delivery when record-keeping is disabled entirely.
        """
        if self.deliveries:
            return sum(d.path_length for d in self.deliveries) / len(self.deliveries)
        if self._delivery_count:
            return self._path_length_total / self._delivery_count
        return 0.0
