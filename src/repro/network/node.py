"""Participating nodes of the anonymous communication system.

A :class:`Node` is one of the ``N`` participants of the paper's system model.
Nodes are deliberately thin: protocol behaviour lives in
:mod:`repro.protocols`, and the adversary's agents live in
:mod:`repro.adversary.collector`.  A node knows its identity, whether it has
been compromised, and simple traffic counters that the analysis modules can
inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Node", "NodeRegistry"]


@dataclass
class Node:
    """One participant in the rerouting system."""

    node_id: int
    compromised: bool = False
    #: Number of messages this node has originated.
    sent_count: int = 0
    #: Number of messages this node has forwarded on behalf of others.
    forwarded_count: int = 0

    def on_originate(self) -> None:
        """Bump the origination counter."""
        self.sent_count += 1

    def on_forward(self) -> None:
        """Bump the forwarding counter."""
        self.forwarded_count += 1


@dataclass
class NodeRegistry:
    """The set of ``N`` nodes making up one system instance."""

    nodes: dict[int, Node] = field(default_factory=dict)

    @classmethod
    def create(
        cls, n_nodes: int, compromised: frozenset[int] | set[int] = frozenset()
    ) -> "NodeRegistry":
        """Create ``n_nodes`` nodes, marking the given identities as compromised."""
        compromised = frozenset(compromised)
        nodes = {
            node_id: Node(node_id=node_id, compromised=node_id in compromised)
            for node_id in range(n_nodes)
        }
        return cls(nodes=nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def __iter__(self):
        return iter(self.nodes.values())

    @property
    def node_ids(self) -> list[int]:
        """Sorted node identities."""
        return sorted(self.nodes)

    @property
    def compromised_ids(self) -> frozenset[int]:
        """Identities of compromised nodes."""
        return frozenset(node.node_id for node in self if node.compromised)

    @property
    def honest_ids(self) -> frozenset[int]:
        """Identities of honest nodes."""
        return frozenset(node.node_id for node in self if not node.compromised)

    def total_forwarded(self) -> int:
        """Total number of forwarding operations across all nodes (overhead metric)."""
        return sum(node.forwarded_count for node in self)
