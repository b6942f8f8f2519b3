"""Intermediate-node selection rules.

Step 2 of the paper's path-selection framework (Figure 2): once the path
length has been drawn, choose the sequence of intermediate nodes.  On a clique
the paper treats this step as straightforward — pick uniformly at random —
but the two path models still differ in whether a node may appear twice:

* :class:`SimplePathSelector` draws an ordered sample of distinct nodes
  (Onion Routing I, Freedom: no cycles);
* :class:`CyclePathSelector` chooses hop by hop, never forwarding a message to
  the node that currently holds it but otherwise allowing revisits, including
  of the sender (Crowds, Onion Routing II, Hordes).

On a restricted topology (:class:`~repro.core.topology.Topology`) the same
two rules generalise: :class:`TopologyCyclePathSelector` forwards hop by hop
to a uniformly chosen *neighbour* of the current holder (the row-normalised
transition matrix of the graph), and :class:`TopologySimplePathSelector`
draws uniformly among the simple paths of the requested length starting at
the sender.  A requested length can be infeasible for a particular sender on
a sparse graph; :meth:`TopologySimplePathSelector.feasible` lets the strategy
redraw the length, which realises exactly the per-sender renormalised law of
:class:`~repro.core.topology.TopologyPathLaw`.

All selectors produce exactly the distributions assumed by the analytical
engines; this equivalence is what lets the Monte-Carlo experiments validate
the closed forms and the topology class tables.
"""

from __future__ import annotations

import abc
from functools import lru_cache

import numpy as np

from repro.core.model import PathModel
from repro.core.topology import Topology
from repro.exceptions import ConfigurationError
from repro.routing.path import ReroutingPath
from repro.utils.rng import RandomSource, ensure_rng

__all__ = [
    "NodeSelector",
    "SimplePathSelector",
    "CyclePathSelector",
    "TopologySimplePathSelector",
    "TopologyCyclePathSelector",
    "selector_for",
]


class NodeSelector(abc.ABC):
    """Strategy for drawing the intermediate nodes of one rerouting path."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 2:
            raise ConfigurationError("node selection requires at least 2 nodes")
        self._n_nodes = n_nodes

    @property
    def n_nodes(self) -> int:
        """Number of nodes available for selection."""
        return self._n_nodes

    @property
    @abc.abstractmethod
    def path_model(self) -> PathModel:
        """Which path model this selector realises."""

    @abc.abstractmethod
    def select(self, sender: int, length: int, rng: RandomSource = None) -> ReroutingPath:
        """Draw a path of exactly ``length`` intermediate nodes for ``sender``."""

    def max_length(self) -> int | None:
        """Longest supported path length (``None`` when unbounded)."""
        return None


class SimplePathSelector(NodeSelector):
    """Ordered uniform sample of distinct intermediate nodes (no cycles)."""

    @property
    def path_model(self) -> PathModel:
        return PathModel.SIMPLE

    def max_length(self) -> int | None:
        return self._n_nodes - 1

    def select(self, sender: int, length: int, rng: RandomSource = None) -> ReroutingPath:
        if length > self._n_nodes - 1:
            raise ConfigurationError(
                f"a simple path cannot have {length} intermediates with only "
                f"{self._n_nodes} nodes"
            )
        generator = ensure_rng(rng)
        others = np.array([node for node in range(self._n_nodes) if node != sender])
        if length == 0:
            return ReroutingPath(sender=sender, intermediates=())
        chosen = generator.choice(others, size=length, replace=False)
        return ReroutingPath(sender=sender, intermediates=tuple(int(n) for n in chosen))


class CyclePathSelector(NodeSelector):
    """Hop-by-hop uniform selection allowing revisits (Crowds-style paths)."""

    @property
    def path_model(self) -> PathModel:
        return PathModel.CYCLE_ALLOWED

    def select(self, sender: int, length: int, rng: RandomSource = None) -> ReroutingPath:
        generator = ensure_rng(rng)
        intermediates: list[int] = []
        current = sender
        for _ in range(length):
            candidates = [node for node in range(self._n_nodes) if node != current]
            current = int(generator.choice(candidates))
            intermediates.append(current)
        return ReroutingPath(sender=sender, intermediates=tuple(intermediates))


class TopologySimplePathSelector(NodeSelector):
    """Uniform draw among the topology's simple paths of the requested length.

    Path enumerations are cached per ``(sender, length)``; because selectors
    for one topology are shared through :func:`selector_for`'s cache, the
    enumeration cost is paid once per configuration, not once per trial.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology.n_nodes)
        self._topology = topology
        self._paths: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}

    @property
    def topology(self) -> Topology:
        """The graph the paths are drawn on."""
        return self._topology

    @property
    def path_model(self) -> PathModel:
        return PathModel.SIMPLE

    def max_length(self) -> int | None:
        return self._n_nodes - 1

    def _enumerate(self, sender: int, length: int) -> tuple[tuple[int, ...], ...]:
        key = (sender, length)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._topology.simple_paths(sender, length)
            self._paths[key] = paths
        return paths

    def feasible(self, sender: int, length: int) -> bool:
        """True when at least one simple path of this length starts at ``sender``."""
        if length > self._n_nodes - 1:
            return False
        return bool(self._enumerate(sender, length))

    def select(self, sender: int, length: int, rng: RandomSource = None) -> ReroutingPath:
        paths = self._enumerate(sender, length)
        if not paths:
            raise ConfigurationError(
                f"no simple path of length {length} starts at node {sender} on "
                f"topology {self._topology.spec}; redraw the length "
                "(see PathSelectionStrategy.build_path)"
            )
        generator = ensure_rng(rng)
        index = int(generator.integers(0, len(paths)))
        return ReroutingPath(sender=sender, intermediates=paths[index])


class TopologyCyclePathSelector(NodeSelector):
    """Hop-by-hop uniform choice among the current holder's neighbours.

    This is the row-normalised transition matrix of the topology — the law
    the cycle-path class tables and the ``topology`` batch engine price
    classes under.  On a clique it coincides with :class:`CyclePathSelector`.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology.n_nodes)
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The graph the walk runs on."""
        return self._topology

    @property
    def path_model(self) -> PathModel:
        return PathModel.CYCLE_ALLOWED

    def select(self, sender: int, length: int, rng: RandomSource = None) -> ReroutingPath:
        generator = ensure_rng(rng)
        intermediates: list[int] = []
        current = sender
        for _ in range(length):
            neighbors = self._topology.neighbors(current)
            current = neighbors[int(generator.integers(0, len(neighbors)))]
            intermediates.append(current)
        return ReroutingPath(sender=sender, intermediates=tuple(intermediates))


@lru_cache(maxsize=64)
def _topology_selector(path_model: PathModel, topology: Topology) -> NodeSelector:
    if path_model is PathModel.SIMPLE:
        return TopologySimplePathSelector(topology)
    return TopologyCyclePathSelector(topology)


def selector_for(
    path_model: PathModel, n_nodes: int, topology: Topology | None = None
) -> NodeSelector:
    """Factory mapping a :class:`PathModel` to its selector implementation.

    ``topology=None`` (or a clique) keeps the paper's clique selectors and
    their exact draw sequence; a non-clique topology returns a shared,
    cached graph selector so path enumerations amortise across trials.
    """
    if topology is not None and topology.n_nodes != n_nodes:
        raise ConfigurationError(
            f"topology {topology.spec} has {topology.n_nodes} nodes but the "
            f"selector was asked for n_nodes={n_nodes}"
        )
    if topology is not None and not topology.is_clique:
        if path_model not in (PathModel.SIMPLE, PathModel.CYCLE_ALLOWED):
            raise ConfigurationError(f"unknown path model {path_model!r}")
        return _topology_selector(path_model, topology)
    if path_model is PathModel.SIMPLE:
        return SimplePathSelector(n_nodes)
    if path_model is PathModel.CYCLE_ALLOWED:
        return CyclePathSelector(n_nodes)
    raise ConfigurationError(f"unknown path model {path_model!r}")
