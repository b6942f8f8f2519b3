"""System and threat model of the paper (Sections 3 and 4).

A rerouting-based anonymous communication system consists of ``N`` nodes that
can all talk to each other directly (the network is a clique at the transport
layer).  The receiver of a message is *outside* this node set and, following
the paper, is always assumed compromised.  ``C`` of the ``N`` nodes are
compromised by a passive adversary; every compromised node on a rerouting path
reports the message's predecessor and successor, compromised nodes off the
path implicitly report silence, and the adversary combines all reports with
full knowledge of the path-selection algorithm (including the path-length
distribution) to compute a posterior over who the sender is.

:class:`SystemModel` captures these parameters plus two modelling choices that
the paper leaves to the system designer:

* the **path model** — whether rerouting paths are *simple* (no node appears
  twice; the paper's primary analytical setting) or may contain *cycles*
  (Crowds and Onion Routing II allow them);
* the **adversary model** — how much of its information the adversary
  exploits.  ``FULL_BAYES`` is the paper's worst-case passive adversary;
  ``POSITION_AWARE`` additionally knows each compromised node's hop position
  (an upper bound corresponding to perfect timing information);
  ``PREDECESSOR_ONLY`` is the weaker Crowds-style adversary that only uses the
  predecessor observed by the first compromised node on the path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.core.topology import Topology
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["PathModel", "AdversaryModel", "SystemModel"]


class PathModel(enum.Enum):
    """How intermediate nodes may repeat along a rerouting path."""

    #: No node appears more than once on the path (the paper's "simple path").
    SIMPLE = "simple"
    #: Nodes may reappear; consecutive hops still differ ("complicated path").
    CYCLE_ALLOWED = "cycle_allowed"


class AdversaryModel(enum.Enum):
    """How the passive adversary turns its observations into a posterior."""

    #: Exact Bayesian posterior over senders given every report and the known
    #: path-length distribution.  This is the paper's worst-case assumption.
    FULL_BAYES = "full_bayes"
    #: Like FULL_BAYES but the adversary additionally knows the hop position of
    #: every compromised node on the path (e.g. from fine-grained timing).
    POSITION_AWARE = "position_aware"
    #: Crowds-style: only the predecessor observed by the first compromised
    #: node on the path is used; receiver reports and successors are ignored.
    PREDECESSOR_ONLY = "predecessor_only"


@dataclass(frozen=True)
class SystemModel:
    """Parameters of one rerouting-based anonymous communication system.

    Parameters
    ----------
    n_nodes:
        Total number of participating nodes ``N`` (the receiver is extra).
    n_compromised:
        Number of compromised nodes ``C`` among the ``N``.  The receiver is
        always compromised in addition to these.
    path_model:
        Whether rerouting paths are simple or may contain cycles.
    adversary:
        The inference strategy of the adversary.
    receiver_compromised:
        Whether the receiver reports its predecessor.  The paper always
        assumes it does; turning it off is useful for sensitivity studies.
    topology:
        The next-hop graph over the node identities
        (:class:`~repro.core.topology.Topology`).  ``None`` — the default —
        means the paper's clique: every node forwards to every other node.
        A non-clique topology routes the model through the graph-general
        engines (exhaustive enumeration, the topology-aware inference, the
        batch ``topology`` engine).
    """

    n_nodes: int
    n_compromised: int = 1
    path_model: PathModel = PathModel.SIMPLE
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES
    receiver_compromised: bool = True
    topology: Topology | None = None

    def __post_init__(self) -> None:
        # numpy integers are accepted but stored as plain ints.
        object.__setattr__(self, "n_nodes", check_positive_int(self.n_nodes, "n_nodes"))
        object.__setattr__(
            self, "n_compromised", check_non_negative_int(self.n_compromised, "n_compromised")
        )
        if self.n_nodes < 2:
            raise ConfigurationError(
                f"the system needs at least 2 nodes, got n_nodes={self.n_nodes}"
            )
        if self.n_compromised > self.n_nodes:
            raise ConfigurationError(
                f"n_compromised ({self.n_compromised}) cannot exceed n_nodes ({self.n_nodes})"
            )
        if not isinstance(self.path_model, PathModel):
            raise ConfigurationError(f"path_model must be a PathModel, got {self.path_model!r}")
        if not isinstance(self.adversary, AdversaryModel):
            raise ConfigurationError(f"adversary must be an AdversaryModel, got {self.adversary!r}")
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise ConfigurationError(
                    f"topology must be a Topology, got {self.topology!r}"
                )
            if self.topology.n_nodes != self.n_nodes:
                raise ConfigurationError(
                    f"topology {self.topology.spec} has {self.topology.n_nodes} "
                    f"nodes but the model has n_nodes={self.n_nodes}"
                )

    # ------------------------------------------------------------------ #
    # Derived quantities                                                   #
    # ------------------------------------------------------------------ #

    @property
    def n_honest(self) -> int:
        """Number of nodes not compromised by the adversary."""
        return self.n_nodes - self.n_compromised

    @property
    def max_simple_path_length(self) -> int:
        """Longest feasible simple path: every other node used once."""
        return self.n_nodes - 1

    @property
    def max_entropy(self) -> float:
        """Upper bound ``log2(N)`` on the anonymity degree (paper, Section 5.1)."""
        return math.log2(self.n_nodes)

    @property
    def clique_routing(self) -> bool:
        """True when every node may forward to every other node.

        This is the domain of the clique closed forms and the symmetry-based
        batch engines; a ``False`` here routes estimation through the
        graph-general topology machinery.
        """
        return self.topology is None or self.topology.is_clique

    def compromised_nodes(self) -> frozenset[int]:
        """A canonical compromised set: the first ``C`` node identities.

        The anonymity degree is invariant under relabelling of nodes, so any
        fixed choice of compromised identities is representative; tests verify
        the invariance explicitly.
        """
        return frozenset(range(self.n_compromised))

    def honest_nodes(self) -> frozenset[int]:
        """Complement of :meth:`compromised_nodes` within the node set."""
        return frozenset(range(self.n_compromised, self.n_nodes))

    def with_adversary(self, adversary: AdversaryModel) -> "SystemModel":
        """Copy of this model with a different adversary inference strategy."""
        return replace(self, adversary=adversary)

    def with_compromised(self, n_compromised: int) -> "SystemModel":
        """Copy of this model with a different number of compromised nodes."""
        return replace(self, n_compromised=n_compromised)

    def with_path_model(self, path_model: PathModel) -> "SystemModel":
        """Copy of this model under a different path model.

        Estimators use this to align the inference engine's model with the
        path model of the strategy actually being sampled, so a caller can
        hand a default (simple-path) model plus a cycle-allowed strategy and
        still get cycle-aware posteriors.
        """
        return replace(self, path_model=path_model)

    def with_topology(self, topology: Topology | None) -> "SystemModel":
        """Copy of this model routed over a different topology (``None`` = clique)."""
        return replace(self, topology=topology)

    def describe(self) -> str:
        """One-line human-readable description used in reports and benchmarks."""
        topology = "" if self.topology is None else f", topology={self.topology.spec}"
        return (
            f"N={self.n_nodes}, C={self.n_compromised}, "
            f"paths={self.path_model.value}, adversary={self.adversary.value}, "
            f"receiver {'compromised' if self.receiver_compromised else 'honest'}"
            f"{topology}"
        )
