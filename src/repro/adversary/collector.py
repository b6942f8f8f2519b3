"""The adversary's collection infrastructure.

The paper's adversary is distributed: an *agent* runs at every compromised
node, records the predecessor and successor of every message that traverses
the node, and forwards its records to a central *coordinator* that merges them
with the receiver's records into per-message :class:`Observation` objects.

The discrete-event simulator drives these classes through real message
deliveries; the analytical experiments bypass them and derive observations
directly from sampled paths (``observation_from_path``).  Tests assert that
the two routes produce identical observations for identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.observation import (
    HopReport,
    Observation,
    ReceiverReport,
)

__all__ = ["AgentRecord", "CompromisedNodeAgent", "ReceiverAgent", "AdversaryCoordinator"]


@dataclass(frozen=True)
class AgentRecord:
    """One raw record captured by an agent: a message seen at a node."""

    message_id: int
    timestamp: float
    node: int
    predecessor: int
    successor: int | str
    position: int | None = None


@dataclass
class CompromisedNodeAgent:
    """Passive agent running at one compromised node.

    ``records`` keeps every traversal in arrival order; an index by message
    id, kept beside it, lets :meth:`records_for` answer without scanning the
    records of every other message the node has carried.
    """

    node: int
    records: list[AgentRecord] = field(default_factory=list)
    _by_message: dict[int, list[AgentRecord]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for record in self.records:
            self._by_message.setdefault(record.message_id, []).append(record)

    def on_forward(
        self,
        message_id: int,
        timestamp: float,
        predecessor: int,
        successor: int | str,
        position: int | None = None,
    ) -> None:
        """Record one traversal of a message through this node."""
        record = AgentRecord(
            message_id=message_id,
            timestamp=timestamp,
            node=self.node,
            predecessor=predecessor,
            successor=successor,
            position=position,
        )
        self.records.append(record)
        self._by_message.setdefault(message_id, []).append(record)

    def records_for(self, message_id: int) -> list[AgentRecord]:
        """All records this agent captured for one message, in arrival order."""
        return list(self._by_message.get(message_id, ()))


@dataclass
class ReceiverAgent:
    """Agent running at the (always compromised) receiver."""

    deliveries: dict[int, ReceiverReport] = field(default_factory=dict)

    def on_deliver(self, message_id: int, timestamp: float, predecessor: int) -> None:
        """Record the delivery of a message and who handed it over."""
        self.deliveries[message_id] = ReceiverReport(
            timestamp=timestamp, predecessor=predecessor
        )


class AdversaryCoordinator:
    """Merges agent records into per-message observations.

    Parameters
    ----------
    compromised:
        The node identities the adversary controls.
    receiver_compromised:
        Whether the receiver cooperates with the adversary (the paper's
        default).
    """

    def __init__(
        self, compromised: frozenset[int] | set[int], receiver_compromised: bool = True
    ) -> None:
        self._compromised = frozenset(compromised)
        self._receiver_compromised = receiver_compromised
        self._agents = {node: CompromisedNodeAgent(node) for node in self._compromised}
        self._receiver_agent = ReceiverAgent()
        self._origins: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Wiring used by the simulator                                        #
    # ------------------------------------------------------------------ #

    @property
    def compromised(self) -> frozenset[int]:
        """The compromised node identities."""
        return self._compromised

    def agent_for(self, node: int) -> CompromisedNodeAgent | None:
        """The agent at ``node``, or ``None`` when the node is honest."""
        return self._agents.get(node)

    @property
    def receiver_agent(self) -> ReceiverAgent:
        """The agent co-located with the receiver."""
        return self._receiver_agent

    def notify_forward(
        self,
        message_id: int,
        node: int,
        timestamp: float,
        predecessor: int,
        successor: int | str,
        position: int | None = None,
    ) -> None:
        """Called by the simulator whenever any node forwards a message.

        Honest nodes are silently ignored, so the simulator does not need to
        know which nodes are compromised.
        """
        agent = self._agents.get(node)
        if agent is not None:
            agent.on_forward(message_id, timestamp, predecessor, successor, position)

    def notify_origin(self, message_id: int, sender: int) -> None:
        """Called when a message is originated; only compromised senders are recorded."""
        if sender in self._compromised:
            self._origins[message_id] = sender

    def notify_delivery(self, message_id: int, timestamp: float, predecessor: int) -> None:
        """Called when the receiver accepts a message."""
        if self._receiver_compromised:
            self._receiver_agent.on_deliver(message_id, timestamp, predecessor)

    # ------------------------------------------------------------------ #
    # Observation assembly                                                #
    # ------------------------------------------------------------------ #

    def observation_for(self, message_id: int) -> Observation:
        """Assemble the complete observation for one message."""
        origin = self._origins.get(message_id)
        if origin is not None:
            return Observation(origin_node=origin)

        reports: list[HopReport] = []
        reporting_nodes: set[int] = set()
        for agent in self._agents.values():
            for record in agent.records_for(message_id):
                reporting_nodes.add(record.node)
                reports.append(
                    HopReport(
                        timestamp=record.timestamp,
                        node=record.node,
                        predecessor=record.predecessor,
                        successor=record.successor,
                        position=record.position,
                    )
                )
        receiver_report = None
        if self._receiver_compromised:
            receiver_report = self._receiver_agent.deliveries.get(message_id)
        silent = self._compromised.difference(reporting_nodes)
        return Observation(
            hop_reports=tuple(sorted(reports, key=lambda r: r.timestamp)),
            receiver_report=receiver_report,
            silent_compromised=frozenset(silent),
            origin_node=None,
        )

    def observed_message_ids(self) -> list[int]:
        """Identifiers of every message for which the adversary has any evidence."""
        ids: set[int] = set(self._origins)
        ids.update(self._receiver_agent.deliveries)
        for agent in self._agents.values():
            ids.update(record.message_id for record in agent.records)
        return sorted(ids)
