"""Anonymous remailer chains (Type-I / Cypherpunk style).

Anonymous remailers provide email sender anonymity by relaying a message
through a user-chosen chain of remailer nodes, each of which strips the
incoming headers before forwarding.  The chain length is chosen by the user;
deployments commonly recommend two to five remailers, modelled here as a
uniform choice over a configurable interval.
"""

from __future__ import annotations

from repro.core.model import PathModel
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.protocols.base import SourceRoutedProtocol
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.validation import check_range

__all__ = ["RemailerChainProtocol"]


class RemailerChainProtocol(SourceRoutedProtocol):
    """Email relayed through a user-chosen chain of remailers."""

    name = "Anonymous Remailer"

    def __init__(
        self,
        n_nodes: int,
        min_chain: int = 2,
        max_chain: int = 5,
    ) -> None:
        super().__init__(n_nodes)
        min_chain, max_chain = check_range(min_chain, max_chain, "min_chain", "max_chain")
        if max_chain > n_nodes - 1:
            raise ConfigurationError(
                f"a chain of {max_chain} remailers is impossible with only "
                f"{n_nodes} nodes"
            )
        self._min_chain = min_chain
        self._max_chain = max_chain

    @property
    def chain_bounds(self) -> tuple[int, int]:
        """Minimum and maximum chain length offered to the user."""
        return self._min_chain, self._max_chain

    def strategy(self) -> PathSelectionStrategy:
        if self._min_chain == self._max_chain:
            distribution = FixedLength(self._min_chain)
        else:
            distribution = UniformLength(self._min_chain, self._max_chain)
        return PathSelectionStrategy(
            name=self.name,
            distribution=distribution,
            path_model=PathModel.SIMPLE,
        )
