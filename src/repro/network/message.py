"""Messages carried by the simulated anonymous communication system.

A :class:`Message` models the unit of traffic at the transport layer: an
opaque payload plus the minimal routing state needed by the rerouting
protocols (the whole route for source-routed systems such as Onion
Routing and Freedom, or nothing at all for hop-by-hop systems such as
Crowds).  The payload travels as given; no hop encrypts it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message", "DeliveryRecord"]

_message_counter = itertools.count()


@dataclass
class Message:
    """One end-to-end message travelling through the system.

    Attributes
    ----------
    message_id:
        Unique identifier assigned at creation time; the adversary uses it to
        correlate sightings of the same message (the paper's assumption that
        messages traversing compromised nodes can be correlated).
    sender:
        Identity of the originating node.
    payload:
        Application payload (opaque to the library).
    route:
        For source-routed protocols, every intermediate node the sender chose,
        in order (``metadata["route_position"]`` counts the hops done);
        hop-by-hop protocols leave it empty and decide dynamically.
    hops_taken:
        The intermediate nodes traversed so far (filled in by the simulator).
    metadata:
        Free-form per-protocol annotations (e.g. the Crowds coin-flip trace).
    """

    sender: int
    payload: Any = None
    route: list[int] = field(default_factory=list)
    hops_taken: list[int] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_counter))

    @property
    def path_length_so_far(self) -> int:
        """Number of intermediate nodes traversed so far."""
        return len(self.hops_taken)

    def record_hop(self, node: int) -> None:
        """Note that ``node`` forwarded this message."""
        self.hops_taken.append(node)


@dataclass(frozen=True)
class DeliveryRecord:
    """Summary of one completed delivery, produced by the simulator."""

    message_id: int
    sender: int
    path: tuple[int, ...]
    delivered_at: float
    protocol: str

    @property
    def path_length(self) -> int:
        """Number of intermediate nodes the message traversed."""
        return len(self.path)
