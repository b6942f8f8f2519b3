"""Exhaustive ground-truth computation of the anonymity degree.

This module computes ``H*(S)`` by brute force: it enumerates every sender,
every path length in the support of the strategy, and every concrete rerouting
path, derives the adversary's observation for each, and accumulates the exact
joint distribution ``Pr[sender, observation]``.  The anonymity degree is then
the exact expected posterior entropy.

The cost grows factorially with the number of nodes and the maximum path
length, so this engine is only practical for small systems (roughly
``N <= 9`` with path lengths up to ``N - 1``).  Its value is as *ground
truth*: it makes no symmetry arguments and no combinatorial shortcuts, so the
closed-form engine (:mod:`repro.core.anonymity`), the re-derived theorems
(:mod:`repro.core.closed_form`), and the fragment-counting inference engine
(:mod:`repro.adversary.inference`) are all validated against it in the test
suite.

Unlike the closed-form engine it supports any number of compromised nodes and
both path models (simple and cycle-allowed).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence

from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import TopologyPathLaw
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.utils.mathx import entropy_bits, kahan_sum

__all__ = ["ExhaustiveAnalyzer", "enumerate_anonymity_degree"]

#: Refuse to enumerate systems whose path space would exceed this many paths
#: per (sender, length) pair; protects against accidental combinatorial blowups.
_MAX_PATHS_PER_LENGTH = 2_000_000


ObservationKey = tuple


class ExhaustiveAnalyzer:
    """Brute-force anonymity-degree computation for small systems."""

    def __init__(self, model: SystemModel) -> None:
        self._model = model
        if model.n_nodes > 9:
            raise ConfigurationError(
                "ExhaustiveAnalyzer enumerates every rerouting path and is only "
                f"meant for small systems (N <= 9); got N={model.n_nodes}. Use "
                "AnonymityAnalyzer (closed form) or the Monte-Carlo experiment instead."
            )

    @property
    def model(self) -> SystemModel:
        """The system model being enumerated."""
        return self._model

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    def anonymity_degree(self, distribution: PathLengthDistribution) -> float:
        """Exact ``H*(S)`` by full enumeration of paths and observations."""
        joint = self.joint_distribution(distribution)
        degree = 0.0
        for weights in joint.values():
            total = kahan_sum(weights)
            if total <= 0.0:
                continue
            posterior = [w / total for w in weights]
            degree += total * entropy_bits(posterior)
        return degree

    def joint_distribution(
        self, distribution: PathLengthDistribution
    ) -> dict[ObservationKey, list[float]]:
        """Exact joint distribution ``Pr[sender, observation]``.

        Returns a mapping from canonical observation keys to a list indexed by
        sender identity containing ``Pr[sender = i, observation]``.
        """
        model = self._model
        n = model.n_nodes
        compromised = model.compromised_nodes()
        self._check_distribution(distribution)

        joint: dict[ObservationKey, list[float]] = defaultdict(lambda: [0.0] * n)
        sender_prior = 1.0 / n

        if not model.clique_routing:
            # Topology-restricted paths are not equiprobable (degrees differ
            # and some lengths are infeasible per sender), so the shared path
            # law supplies each outcome's exact probability.
            law = TopologyPathLaw(
                model.topology,
                allow_cycles=model.path_model is PathModel.CYCLE_ALLOWED,
                length_probs=dict(distribution.items()),
            )
            for sender in range(n):
                for _length, path, probability in law.entries(sender):
                    key = self._observation_key(sender, path, compromised)
                    joint[key][sender] += sender_prior * probability
            return dict(joint)

        for sender in range(n):
            for length, length_prob in distribution.items():
                paths = list(self._paths(sender, length))
                if not paths:
                    continue
                path_prob = sender_prior * length_prob / len(paths)
                for path in paths:
                    key = self._observation_key(sender, path, compromised)
                    joint[key][sender] += path_prob
        return dict(joint)

    # ------------------------------------------------------------------ #
    # Path enumeration                                                    #
    # ------------------------------------------------------------------ #

    def _check_distribution(self, distribution: PathLengthDistribution) -> None:
        model = self._model
        if model.path_model is PathModel.SIMPLE:
            if distribution.max_length > model.max_simple_path_length:
                raise ConfigurationError(
                    f"distribution {distribution.name} exceeds the maximum simple-path "
                    f"length {model.max_simple_path_length} for N={model.n_nodes}"
                )
        if not model.clique_routing:
            # The topology path law enforces its own per-(sender, length)
            # enumeration cap; the clique count formulas below do not apply.
            return
        for length in distribution.support:
            count = self._path_count(length)
            if count > _MAX_PATHS_PER_LENGTH:
                raise ConfigurationError(
                    f"enumerating length-{length} paths in a system of "
                    f"{model.n_nodes} nodes would require {count} paths; "
                    "reduce the system size or path length"
                )

    def _path_count(self, length: int) -> int:
        n = self._model.n_nodes
        if self._model.path_model is PathModel.SIMPLE:
            count = 1
            for offset in range(length):
                count *= max(n - 1 - offset, 0)
            return count
        return (n - 1) ** length if length > 0 else 1

    def _paths(self, sender: int, length: int) -> Iterator[tuple[int, ...]]:
        """Yield every rerouting path (tuple of intermediate nodes) of the given length."""
        n = self._model.n_nodes
        others = [node for node in range(n) if node != sender]
        if length == 0:
            yield ()
            return
        if self._model.path_model is PathModel.SIMPLE:
            yield from itertools.permutations(others, length)
            return
        # Cycle-allowed paths: the first hop avoids the sender, every later hop
        # avoids only its immediate predecessor (no self-forwarding), and the
        # sender itself may reappear later on the path.
        def extend(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if len(prefix) == length:
                yield prefix
                return
            previous = prefix[-1]
            for node in range(n):
                if node != previous:
                    yield from extend(prefix + (node,))

        for first in others:
            yield from extend((first,))

    # ------------------------------------------------------------------ #
    # Observation derivation                                              #
    # ------------------------------------------------------------------ #

    def _observation_key(
        self,
        sender: int,
        path: Sequence[int],
        compromised: Iterable[int],
    ) -> ObservationKey:
        """Canonical observation key for one concrete (sender, path) outcome."""
        model = self._model
        compromised = frozenset(compromised)
        adversary = model.adversary

        if sender in compromised:
            # A compromised sender is observed originating the message.
            return ("origin", sender)

        receiver_report = None
        if model.receiver_compromised:
            receiver_report = path[-1] if path else sender

        reports: list[tuple] = []
        for position, node in enumerate(path):
            if node not in compromised:
                continue
            predecessor = path[position - 1] if position > 0 else sender
            successor = path[position + 1] if position + 1 < len(path) else "R"
            if adversary is AdversaryModel.POSITION_AWARE:
                reports.append((node, position + 1, predecessor, successor))
            else:
                reports.append((node, predecessor, successor))

        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            # Only the first compromised node's predecessor is used; the
            # receiver's report and every successor are discarded.
            if reports:
                first = reports[0]
                return ("pred", first[0], first[-2])
            return ("pred-silent",)

        return ("obs", tuple(reports), receiver_report)


def enumerate_anonymity_degree(
    n_nodes: int,
    distribution: PathLengthDistribution,
    n_compromised: int = 1,
    path_model: PathModel = PathModel.SIMPLE,
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
    receiver_compromised: bool = True,
) -> float:
    """Functional wrapper around :class:`ExhaustiveAnalyzer`."""
    model = SystemModel(
        n_nodes=n_nodes,
        n_compromised=n_compromised,
        path_model=path_model,
        adversary=adversary,
        receiver_compromised=receiver_compromised,
    )
    return ExhaustiveAnalyzer(model).anonymity_degree(distribution)
