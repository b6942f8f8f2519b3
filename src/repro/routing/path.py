"""Rerouting paths.

A :class:`ReroutingPath` is the object defined by equation (1) of the paper:
the sender, the ordered intermediate nodes, and (implicitly) the receiver.
The path length is the number of intermediate nodes.  The class knows how to
validate itself against a path model (simple vs. cycle-allowed) and a
topology, and how to answer the structural questions the analysis modules ask
("is node x on the path?", "who precedes position j?").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import PathModel
from repro.core.topology import Topology
from repro.exceptions import ConfigurationError

__all__ = ["ReroutingPath"]


@dataclass(frozen=True)
class ReroutingPath:
    """One concrete rerouting path: sender plus ordered intermediate nodes."""

    sender: int
    intermediates: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.intermediates and self.intermediates[0] == self.sender:
            raise ConfigurationError(
                "the first intermediate node must differ from the sender "
                "(paper, equation (1))"
            )
        for first, second in zip(self.intermediates, self.intermediates[1:]):
            if first == second:
                raise ConfigurationError(
                    "consecutive intermediate nodes must differ (no self-forwarding)"
                )

    # ------------------------------------------------------------------ #
    # Structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def length(self) -> int:
        """Path length = number of intermediate nodes (paper, Section 3.1)."""
        return len(self.intermediates)

    @property
    def is_simple(self) -> bool:
        """True when no node appears twice (sender included)."""
        nodes = (self.sender, *self.intermediates)
        return len(set(nodes)) == len(nodes)

    @property
    def follows_no_self_forwarding(self) -> bool:
        """True when no hop forwards the message to its current holder.

        This is the one structural rule of the cycle-allowed path model (the
        rule :class:`~repro.routing.selection.CyclePathSelector` enforces hop
        by hop): the first intermediate differs from the sender and no two
        consecutive intermediates coincide.
        """
        if self.intermediates and self.intermediates[0] == self.sender:
            return False
        return all(
            first != second
            for first, second in zip(self.intermediates, self.intermediates[1:])
        )

    @property
    def nodes_on_path(self) -> frozenset[int]:
        """All node identities appearing on the path (sender included)."""
        return frozenset((self.sender, *self.intermediates))

    def predecessor_of(self, position: int) -> int:
        """Node preceding the 1-based intermediate ``position`` (the sender for position 1)."""
        if not 1 <= position <= self.length:
            raise ConfigurationError(f"position {position} outside [1, {self.length}]")
        if position == 1:
            return self.sender
        return self.intermediates[position - 2]

    def successor_of(self, position: int) -> int | None:
        """Node following the 1-based ``position``, or ``None`` for the receiver."""
        if not 1 <= position <= self.length:
            raise ConfigurationError(f"position {position} outside [1, {self.length}]")
        if position == self.length:
            return None
        return self.intermediates[position]

    def positions_of(self, node: int) -> tuple[int, ...]:
        """1-based positions at which ``node`` appears as an intermediate."""
        return tuple(
            index + 1 for index, hop in enumerate(self.intermediates) if hop == node
        )

    # ------------------------------------------------------------------ #
    # Validation                                                          #
    # ------------------------------------------------------------------ #

    def conforms_to(self, path_model: PathModel) -> bool:
        """True when the path is legal under the given path model.

        The cycle-allowed check is real validation, not a constant: it
        re-verifies the no-self-forwarding rule so that validation agrees
        with :class:`~repro.routing.selection.CyclePathSelector` even for
        instances built around the constructor invariants (deserialisation,
        ``__new__``-based copies, future relaxations of ``__post_init__``).
        """
        if path_model is PathModel.SIMPLE:
            # A simple path has all-distinct nodes, which already implies the
            # no-self-forwarding rule.
            return self.is_simple
        return self.follows_no_self_forwarding

    def routable_on(self, topology: Topology | None) -> bool:
        """True when every consecutive hop is a direct link of the topology.

        ``None`` is the paper's clique, where every hop to another node is a
        link.
        """
        if topology is None:
            return self.follows_no_self_forwarding
        return topology.validate_path(self.sender, self.intermediates)
