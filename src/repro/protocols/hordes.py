"""Hordes (Shields & Levine 2000).

Hordes borrows Crowds' jondo-based forward path — hop-by-hop coin-flip
forwarding with cycles allowed — but returns replies to the initiator over a
multicast group instead of retracing the forward path.  The multicast reply
improves latency and removes the reply path as a traffic-analysis target; the
*sender* anonymity of the forward path, which is what the paper's metric
measures, is the same coin-flip strategy as Crowds, so the analytical face is
identical up to the forwarding probability.
"""

from __future__ import annotations

from typing import Any

from repro.network.message import Message
from repro.protocols.crowds import CrowdsProtocol
from repro.utils.rng import RandomSource

__all__ = ["HordesProtocol"]


class HordesProtocol(CrowdsProtocol):
    """Crowds-style forward path with multicast replies."""

    name = "Hordes"

    def __init__(
        self,
        n_nodes: int,
        p_forward: float = 0.75,
        multicast_group_size: int = 8,
    ) -> None:
        super().__init__(n_nodes, p_forward=p_forward, static_paths=False)
        self._multicast_group_size = min(multicast_group_size, n_nodes)

    @property
    def multicast_group_size(self) -> int:
        """Size of the multicast group the initiator joins to receive replies."""
        return self._multicast_group_size

    def originate(self, sender: int, payload: Any, rng: RandomSource = None) -> Message:
        message = super().originate(sender, payload, rng)
        # The initiator advertises a multicast group for the reply; the group
        # membership is part of the message metadata so a future
        # receiver-anonymity analysis can use it, but it plays no role in the
        # forward-path sender anonymity studied by the paper.
        message.metadata["multicast_group_size"] = self._multicast_group_size
        return message
