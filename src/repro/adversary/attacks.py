"""A long-term attack built on top of per-message observations.

The paper analyses the anonymity of a *single* message.  Follow-up work (the
predecessor attack of Wright et al., cited by the paper as [23]) shows that an
adversary who observes many messages of the same sender over time can do much
better by aggregating.  The predecessor attack is included because it is the
natural next experiment once the per-message machinery exists; the ``ext-pred``
extension quantifies how quickly repeated path formation erodes the
single-message anonymity degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.adversary.observation import Observation
from repro.utils.mathx import entropy_bits

__all__ = ["PredecessorAttack"]


@dataclass
class PredecessorAttack:
    """The predecessor attack: count who most often precedes compromised nodes.

    Over many rerouting paths between the same sender and receiver, the true
    sender appears as the predecessor of the first compromised node on the
    path more often than any other node (it is there every time the first
    intermediate node happens to be compromised, whereas other nodes only
    appear by chance).  The attack simply tallies those appearances.
    """

    counts: Counter = field(default_factory=Counter)
    rounds_observed: int = 0

    def ingest(self, observation: Observation) -> None:
        """Incorporate one per-message observation."""
        self.rounds_observed += 1
        if observation.origin_node is not None:
            self.counts[observation.origin_node] += 1
            return
        if observation.hop_reports:
            first = observation.hop_reports[0]
            self.counts[first.predecessor] += 1

    def suspect(self) -> int | None:
        """Current best guess for the sender (``None`` before any evidence)."""
        if not self.counts:
            return None
        return self.counts.most_common(1)[0][0]

    def score(self, node: int) -> float:
        """Fraction of observed rounds in which ``node`` was the leading suspect evidence."""
        if self.rounds_observed == 0:
            return 0.0
        return self.counts.get(node, 0) / self.rounds_observed

    def posterior_entropy_bits(self, n_nodes: int) -> float:
        """Entropy of the empirical suspect distribution (uniform before evidence)."""
        if not self.counts:
            return entropy_bits([1.0 / n_nodes] * n_nodes)
        total = sum(self.counts.values())
        return entropy_bits([count / total for count in self.counts.values()])
