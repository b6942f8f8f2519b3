"""Base machinery shared by the rerouting-protocol implementations.

Section 2 of the paper surveys the deployed anonymous communication systems —
Anonymizer, LPWA, anonymous remailers, Onion Routing I/II, Crowds, Hordes,
Freedom, PipeNet, and mix networks — and observes that, for the purposes of
sender anonymity against a passive adversary, they differ mainly in *how the
rerouting path is selected*.  The protocol classes in this subpackage
therefore expose two complementary faces:

* an **operational** face used by the discrete-event simulator: originate a
  message and decide, hop by hop, where it goes next;
* an **analytical** face used by the experiments: the
  :class:`~repro.routing.strategies.PathSelectionStrategy` that the protocol's
  routing behaviour induces, which is what the paper's anonymity-degree
  machinery consumes.

Tests assert that the two faces agree: the empirical path-length distribution
produced by the operational implementation matches the analytical strategy.
Like the paper's adversary model, the simulator assumes perfect cryptography:
a message carries its route and payload as they are, and no hop encrypts.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.exceptions import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.routing.path import ReroutingPath
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["DELIVER", "ReroutingProtocol", "SourceRoutedProtocol"]

#: Sentinel returned by :meth:`ReroutingProtocol.forward` to mean "hand the
#: message to the receiver now".
DELIVER = "DELIVER"


class ReroutingProtocol(abc.ABC):
    """One rerouting-based anonymous communication protocol."""

    #: Human-readable protocol name (overridden by subclasses).
    name: str = "abstract-rerouting-protocol"

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 2:
            raise ConfigurationError(f"{self.name} needs at least two nodes, got {n_nodes}")
        self._n_nodes = n_nodes

    # ------------------------------------------------------------------ #
    # Analytical face                                                     #
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        """Number of participating nodes."""
        return self._n_nodes

    @abc.abstractmethod
    def strategy(self) -> PathSelectionStrategy:
        """The path-selection strategy this protocol realises."""

    # ------------------------------------------------------------------ #
    # Operational face                                                    #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def originate(self, sender: int, payload: Any, rng: RandomSource = None) -> Message:
        """Create the message a sender injects into the system."""

    @abc.abstractmethod
    def forward(self, node: int, message: Message, rng: RandomSource = None) -> int | str:
        """Decide where ``node`` sends ``message`` next.

        Returns the identity of the next intermediate node, or :data:`DELIVER`
        to hand the message to the receiver.
        """

    def first_hop(self, message: Message, rng: RandomSource = None) -> int | str:
        """Where the sender injects the message.

        Source-routed protocols send to the first node of the route they built
        at origination (or straight to the receiver for a zero-length path);
        hop-by-hop protocols such as Crowds override this to make the sender's
        own forwarding decision.
        """
        if message.route:
            return message.route[0]
        return DELIVER

    # ------------------------------------------------------------------ #
    # Shared helpers                                                      #
    # ------------------------------------------------------------------ #

    def build_path(self, sender: int, rng: RandomSource = None) -> ReroutingPath:
        """Draw the rerouting path the analytical strategy would produce."""
        return self.strategy().build_path(sender, self._n_nodes, ensure_rng(rng))

    def describe(self) -> str:
        """One-line description used in comparison tables."""
        return f"{self.name} ({self.strategy().describe()})"


class SourceRoutedProtocol(ReroutingProtocol):
    """Common behaviour for protocols whose sender picks the whole route.

    Onion Routing, Freedom, PipeNet, and remailer chains all build the entire
    route at the sender.  Subclasses only need to provide the path-selection
    strategy; origination and forwarding are implemented here once.
    """

    def originate(self, sender: int, payload: Any, rng: RandomSource = None) -> Message:
        path = self.build_path(sender, rng)
        message = Message(sender=sender, payload=payload, route=list(path.intermediates))
        message.metadata["route_position"] = 0
        return message

    def forward(self, node: int, message: Message, rng: RandomSource = None) -> int | str:
        if not message.route:
            raise ProtocolError(
                f"{self.name}: node {node} received a message with an exhausted route"
            )
        position = message.metadata.get("route_position", 0)
        if position >= len(message.route) or message.route[position] != node:
            raise ProtocolError(
                f"{self.name}: node {node} is not the position-{position} hop of "
                f"message {message.message_id}"
            )
        message.metadata["route_position"] = position + 1
        if position + 1 < len(message.route):
            return message.route[position + 1]
        return DELIVER
