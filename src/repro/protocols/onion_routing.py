"""Onion Routing, generations I and II.

**Onion Routing I** (the Naval Research Laboratory prototype) ran five onion
routers and forced every circuit through a *fixed* five-hop route.  The sender
builds the whole route, wraps the payload in five encryption layers, and each
router peels exactly one layer, learning only its predecessor and successor.

**Onion Routing II** scaled the design to ~50 core routers and replaced the
fixed route length by the Crowds-style weighted coin: after a mandatory first
hop, each additional hop is appended with probability ``p_forward``, so the
route length is geometric and routes may contain cycles.  The sender still
builds the whole route up front (unlike Crowds, where forwarding decisions are
made hop by hop).
"""

from __future__ import annotations

from repro.core.model import PathModel
from repro.distributions import FixedLength, GeometricLength
from repro.protocols.base import SourceRoutedProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.validation import check_non_negative_int, check_probability

__all__ = ["OnionRoutingI", "OnionRoutingII"]


class OnionRoutingI(SourceRoutedProtocol):
    """Fixed five-hop onion routes (configurable for sensitivity studies)."""

    name = "Onion Routing I"

    def __init__(self, n_nodes: int, route_length: int = 5) -> None:
        super().__init__(n_nodes)
        check_non_negative_int(route_length, "route_length")
        self._route_length = route_length

    @property
    def route_length(self) -> int:
        """The fixed number of onion routers on every circuit."""
        return self._route_length

    def strategy(self) -> PathSelectionStrategy:
        return PathSelectionStrategy(
            name=self.name,
            distribution=FixedLength(self._route_length),
            path_model=PathModel.SIMPLE,
        )


class OnionRoutingII(SourceRoutedProtocol):
    """Coin-flip route lengths borrowed from Crowds; cycles permitted."""

    name = "Onion Routing II"

    def __init__(
        self,
        n_nodes: int,
        p_forward: float = 0.5,
        minimum_hops: int = 1,
    ) -> None:
        super().__init__(n_nodes)
        self._p_forward = check_probability(p_forward, "p_forward")
        self._minimum_hops = check_non_negative_int(minimum_hops, "minimum_hops")

    @property
    def p_forward(self) -> float:
        """Coin weight controlling the expected route length."""
        return self._p_forward

    def strategy(self) -> PathSelectionStrategy:
        return PathSelectionStrategy(
            name=self.name,
            distribution=GeometricLength(
                p_forward=self._p_forward, minimum=self._minimum_hops
            ),
            path_model=PathModel.CYCLE_ALLOWED,
        )
