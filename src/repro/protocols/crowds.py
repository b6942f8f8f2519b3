"""Crowds (Reiter & Rubin 1998).

Crowds protects web-browsing anonymity by routing a request through a crowd of
cooperating proxies ("jondos").  Path selection is hop by hop: the initiator
forwards the request to a randomly chosen jondo; every jondo that receives a
request flips a biased coin and, with probability ``p_forward`` (3/4 in the
original deployment), forwards it to another randomly chosen jondo, otherwise
it submits the request to the end server.  Cycles are allowed, and once formed
a path is reused for all requests of the same sender within a 24-hour period —
an operational detail that matters a great deal for long-term attacks (see
:class:`repro.adversary.attacks.PredecessorAttack`).

The induced path-length distribution is geometric with a guaranteed first hop,
which is exactly what the analytical face reports.
"""

from __future__ import annotations

from typing import Any

from repro.core.model import PathModel
from repro.distributions import GeometricLength
from repro.exceptions import ProtocolError
from repro.network.message import Message
from repro.protocols.base import DELIVER, ReroutingProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_probability

__all__ = ["CrowdsProtocol"]


class CrowdsProtocol(ReroutingProtocol):
    """Hop-by-hop coin-flip forwarding among jondos."""

    name = "Crowds"

    def __init__(
        self,
        n_nodes: int,
        p_forward: float = 0.75,
        static_paths: bool = False,
    ) -> None:
        super().__init__(n_nodes)
        self._p_forward = check_probability(p_forward, "p_forward")
        if self._p_forward >= 1.0:
            raise ProtocolError(
                "p_forward must be < 1 so requests eventually reach the server"
            )
        self._static_paths = static_paths
        self._static_routes: dict[int, tuple[int, ...]] = {}

    @property
    def p_forward(self) -> float:
        """Probability that a jondo forwards to another jondo instead of submitting."""
        return self._p_forward

    @property
    def static_paths(self) -> bool:
        """Whether a sender reuses its first path for subsequent requests."""
        return self._static_paths

    # ------------------------------------------------------------------ #
    # Analytical face                                                     #
    # ------------------------------------------------------------------ #

    def strategy(self) -> PathSelectionStrategy:
        return PathSelectionStrategy(
            name=self.name,
            distribution=GeometricLength(p_forward=self._p_forward, minimum=1),
            path_model=PathModel.CYCLE_ALLOWED,
        )

    def probable_innocence_holds(self, n_compromised: int) -> bool:
        """Reiter & Rubin's probable-innocence condition.

        Crowds guarantees "probable innocence" (to a collaborating jondo, the
        predecessor it observes is no more likely than not to be the true
        initiator) when ``n >= (p_f / (p_f - 1/2)) * (c + 1)``.
        """
        if self._p_forward <= 0.5:
            return False
        required = (self._p_forward / (self._p_forward - 0.5)) * (n_compromised + 1)
        return self._n_nodes >= required

    # ------------------------------------------------------------------ #
    # Operational face                                                    #
    # ------------------------------------------------------------------ #

    def originate(self, sender: int, payload: Any, rng: RandomSource = None) -> Message:
        message = Message(sender=sender, payload=payload)
        if self._static_paths and sender in self._static_routes:
            message.route = list(self._static_routes[sender])
            message.metadata["replaying_static"] = True
            message.metadata["route_position"] = 0
        return message

    def first_hop(self, message: Message, rng: RandomSource = None) -> int | str:
        if message.metadata.get("replaying_static"):
            return message.route[0]
        return self._random_other(message.sender, ensure_rng(rng))

    def forward(self, node: int, message: Message, rng: RandomSource = None) -> int | str:
        generator = ensure_rng(rng)

        if message.metadata.get("replaying_static"):
            position = message.metadata["route_position"]
            if position >= len(message.route) or message.route[position] != node:
                raise ProtocolError(
                    f"{self.name}: static-path replay desynchronised at node {node}"
                )
            message.metadata["route_position"] = position + 1
            if position + 1 < len(message.route):
                return message.route[position + 1]
            return DELIVER

        if generator.random() < self._p_forward:
            return self._random_other(node, generator)
        if self._static_paths and message.sender not in self._static_routes:
            # The path is now complete; remember it for this sender's future
            # requests (the 24-hour path reuse of the deployed system).
            self._static_routes[message.sender] = tuple(message.hops_taken)
        return DELIVER

    def _random_other(self, node: int, generator) -> int:
        candidates = [candidate for candidate in range(self._n_nodes) if candidate != node]
        return int(generator.choice(candidates))
