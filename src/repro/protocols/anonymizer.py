"""Anonymizer and the Lucent Personalized Web Assistant (single-proxy systems).

Both systems interpose exactly one intermediate node between the user and the
web server: the Anonymizer server (or the LPWA proxy) strips identifying
headers and forwards the request, so the server only ever sees the proxy.
In the paper's framework this is the fixed-length-one strategy — the shortest
rerouting path that provides any sender anonymity at all, and (per the
short-path effect of Figure 3(b)) a measurably weak one.

Two deployment flavours are modelled:

* ``dedicated_proxy`` — all users share one well-known proxy node, the
  faithful model of the real Anonymizer;
* otherwise the proxy is drawn uniformly per message, which matches the
  abstract single-hop strategy analysed by the paper (and keeps the clique
  symmetry the analytical engine assumes).
"""

from __future__ import annotations

from typing import Any

from repro.core.model import PathModel
from repro.distributions import FixedLength
from repro.exceptions import ProtocolError
from repro.network.message import Message
from repro.protocols.base import DELIVER, ReroutingProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["AnonymizerProtocol"]


class AnonymizerProtocol(ReroutingProtocol):
    """A single proxy hop between the sender and the receiver."""

    name = "Anonymizer"

    def __init__(
        self,
        n_nodes: int,
        dedicated_proxy: int | None = None,
    ) -> None:
        super().__init__(n_nodes)
        if dedicated_proxy is not None and not 0 <= dedicated_proxy < n_nodes:
            raise ProtocolError(
                f"dedicated proxy {dedicated_proxy} outside the node range [0, {n_nodes})"
            )
        self._dedicated_proxy = dedicated_proxy

    @property
    def dedicated_proxy(self) -> int | None:
        """The shared proxy node, or ``None`` when chosen per message."""
        return self._dedicated_proxy

    def strategy(self) -> PathSelectionStrategy:
        return PathSelectionStrategy(
            name=self.name,
            distribution=FixedLength(1),
            path_model=PathModel.SIMPLE,
        )

    def originate(self, sender: int, payload: Any, rng: RandomSource = None) -> Message:
        generator = ensure_rng(rng)
        if self._dedicated_proxy is not None and self._dedicated_proxy != sender:
            proxy = self._dedicated_proxy
        else:
            candidates = [node for node in range(self._n_nodes) if node != sender]
            proxy = int(generator.choice(candidates))
        return Message(sender=sender, payload=payload, route=[proxy])

    def forward(self, node: int, message: Message, rng: RandomSource = None) -> int | str:
        if not message.route or message.route[0] != node:
            raise ProtocolError(
                f"{self.name}: node {node} received a message addressed to "
                f"{message.route!r}"
            )
        return DELIVER
