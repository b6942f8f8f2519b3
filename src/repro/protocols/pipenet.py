"""PipeNet (Wei Dai).

PipeNet is a design for anonymous communication based on virtual link
encryption: the sender establishes a rerouting path of three or four
intermediate nodes before any data flows, and all traffic of the connection
then follows that path.  For the purposes of the paper's analysis the relevant
property is its path-length strategy: a choice between three and four hops,
modelled here as a two-point distribution.
"""

from __future__ import annotations

from repro.core.model import PathModel
from repro.distributions import TwoPointLength
from repro.protocols.base import SourceRoutedProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.validation import check_probability

__all__ = ["PipeNetProtocol"]


class PipeNetProtocol(SourceRoutedProtocol):
    """Virtual-link circuits of three or four intermediate nodes."""

    name = "PipeNet"

    def __init__(
        self,
        n_nodes: int,
        p_three_hops: float = 0.5,
    ) -> None:
        super().__init__(n_nodes)
        self._p_three_hops = check_probability(p_three_hops, "p_three_hops")

    @property
    def p_three_hops(self) -> float:
        """Probability that a new virtual link uses three (rather than four) hops."""
        return self._p_three_hops

    def strategy(self) -> PathSelectionStrategy:
        if self._p_three_hops >= 1.0:
            from repro.distributions import FixedLength

            distribution = FixedLength(3)
        elif self._p_three_hops <= 0.0:
            from repro.distributions import FixedLength

            distribution = FixedLength(4)
        else:
            distribution = TwoPointLength(3, 4, self._p_three_hops)
        return PathSelectionStrategy(
            name=self.name,
            distribution=distribution,
            path_model=PathModel.SIMPLE,
        )
