"""The Freedom Network (Zero-Knowledge Systems).

Freedom ran a commercial overlay of AIPs (Anonymous Internet Proxies).  The
client's Route Creation Protocol let the user pick the proxies at random, but
the route length was fixed at three intermediate nodes, and the client UI did
not allow routes containing cycles — which is why the paper classifies
Freedom, together with Onion Routing I, as a fixed-length / simple-path
strategy.
"""

from __future__ import annotations

from repro.core.model import PathModel
from repro.distributions import FixedLength
from repro.protocols.base import SourceRoutedProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.validation import check_non_negative_int

__all__ = ["FreedomProtocol"]


class FreedomProtocol(SourceRoutedProtocol):
    """Source-routed circuits of exactly three proxies, no cycles."""

    name = "Freedom"

    def __init__(self, n_nodes: int, route_length: int = 3) -> None:
        super().__init__(n_nodes)
        check_non_negative_int(route_length, "route_length")
        self._route_length = route_length

    @property
    def route_length(self) -> int:
        """Number of AIPs on every route (three in the deployed system)."""
        return self._route_length

    def strategy(self) -> PathSelectionStrategy:
        return PathSelectionStrategy(
            name=self.name,
            distribution=FixedLength(self._route_length),
            path_model=PathModel.SIMPLE,
        )
