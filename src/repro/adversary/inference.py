"""Bayesian sender inference from adversary observations.

This is the general-purpose counterpart of the closed-form engine in
:mod:`repro.core.anonymity`: given a concrete :class:`Observation` (from any
number of compromised nodes), the known path-length distribution, and the
system size, compute the exact posterior probability that each node is the
sender of the observed message.

The computation follows the paper's formulas (7)–(8): for every candidate
sender ``i`` and every possible path length ``l``,

    Pr[observation | sender = i] =
        sum over l of  Pr[L = l] * (#consistent paths) / (#all paths of length l)

where the consistent-path count comes from the block-arrangement counter in
:mod:`repro.combinatorics.arrangements`.  Bayes' rule with a uniform prior
over senders then yields the posterior.  Honest candidates the observation
does not name are exchangeable — they receive equal counts — so the sum is
evaluated once per named candidate plus once for that whole orbit, not ``N``
times.  Two policy details mirror the threat model:

* a compromised sender betrays itself (the "local eavesdropper" case), so a
  compromised node that did *not* file an origin report has posterior zero;
* the adversary knows which nodes it has compromised, so silence of those
  nodes is used as negative evidence (they are not on the path).

The engine supports all three adversaries of
:class:`repro.core.model.AdversaryModel` on two path models:

* **simple paths** (any number of compromised nodes) via the block-arrangement
  counts of :mod:`repro.combinatorics.arrangements`;
* **cycle-allowed paths** (any number of compromised nodes) via clique *walk*
  counts (:mod:`repro.combinatorics.walks`): a cycle path is a uniform walk on
  ``K_N`` without self-loops, the hops between compromised visits are walks
  in the honest sub-clique ``K_{N-C}``, and the likelihood of an observation
  is a convolution of per-segment walk counts over the unknown segment
  lengths.  Consecutive compromised visits may sit adjacent on the path
  (``C > 1``), in which case their gap consumes one fixed edge and no honest
  segment.  Only the *first* segment depends on the candidate sender (through
  whether the candidate coincides with the first observed predecessor), which
  is what keeps cycle posteriors two-valued and therefore cheap at any ``C``.

It is exact, not sampled; the Monte-Carlo machinery only samples
*observations*, never posteriors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.adversary.observation import Observation, RECEIVER, observation_from_path
from repro.combinatorics.arrangements import count_arrangements, total_paths
from repro.combinatorics.fragments import FragmentSet
from repro.combinatorics.walks import (
    normalized_avoiding_walks,
    normalized_free_walks,
)
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import TopologyPathLaw
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError, InferenceError
from repro.utils.mathx import entropy_bits, falling_factorial, kahan_sum

__all__ = [
    "SenderPosterior",
    "BayesianPathInference",
    "TopologyClassTable",
    "observation_class_key",
]


def observation_class_key(
    observation: Observation, adversary: AdversaryModel
) -> tuple:
    """Canonical observation-class key, matching the exhaustive analyzer's.

    Two observations with the same key are indistinguishable to the given
    adversary and therefore share one exact posterior.  The key shapes mirror
    ``ExhaustiveAnalyzer._observation_key`` exactly — ``("origin", node)``
    for a betrayed compromised sender, ``("pred", node, predecessor)`` /
    ``("pred-silent",)`` for the Crowds-style adversary, and
    ``("obs", reports, receiver_report)`` otherwise — so joint tables built
    from observations and from enumerated paths are directly comparable.
    """
    if observation.origin_node is not None:
        return ("origin", observation.origin_node)
    reports: list[tuple] = []
    for report in observation.hop_reports:
        successor = "R" if report.successor == RECEIVER else report.successor
        if adversary is AdversaryModel.POSITION_AWARE:
            if report.position is None:
                raise InferenceError(
                    f"a position-aware adversary needs hop positions, but the "
                    f"report from node {report.node} carries none"
                )
            reports.append(
                (report.node, report.position, report.predecessor, successor)
            )
        else:
            reports.append((report.node, report.predecessor, successor))
    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        if reports:
            return ("pred", reports[0][0], reports[0][1])
        return ("pred-silent",)
    receiver_report = None
    if observation.receiver_report is not None:
        receiver_report = observation.receiver_report.predecessor
    return ("obs", tuple(reports), receiver_report)


class TopologyClassTable:
    """Exact observation classes of one topology-routed configuration.

    Enumerates every ``(sender, path)`` outcome of the
    :class:`~repro.core.topology.TopologyPathLaw`, derives each outcome's
    observation through the reference threat model
    (:func:`~repro.adversary.observation.observation_from_path`), and
    accumulates the exact joint distribution ``Pr[sender, class]``.  This is
    the topology counterpart of the clique symmetry classes: the batch
    ``topology`` engine scores its class keys from this table, the Bayesian
    inference engine reads posteriors out of it, and
    :meth:`exact_degree` reproduces the exhaustive analyzer's ``H*`` to
    floating-point agreement by construction.

    Each outcome's observation is derived once.  Besides the joint table,
    :attr:`outcome_classes` keeps, per sender, the class index of every
    outcome of ``law.entries(sender)``: the position of its key in
    :attr:`joint`, whose keys stand in order of first appearance over
    ``(sender, outcome)``.  The batch ``topology`` engine numbers its
    classes by those indices.
    """

    def __init__(
        self,
        model: SystemModel,
        distribution: PathLengthDistribution,
        compromised: frozenset[int] | set[int] | None = None,
        law: TopologyPathLaw | None = None,
    ) -> None:
        if model.topology is None:
            raise ConfigurationError(
                "TopologyClassTable needs a model that carries a topology"
            )
        if compromised is None:
            compromised = model.compromised_nodes()
        self._model = model
        self._distribution = distribution
        self._compromised = frozenset(compromised)
        if law is None:
            law = TopologyPathLaw(
                model.topology,
                allow_cycles=model.path_model is PathModel.CYCLE_ALLOWED,
                length_probs=dict(distribution.items()),
            )
        self._law = law
        n = model.n_nodes
        prior = 1.0 / n
        index_of: dict[tuple, int] = {}
        rows: list[list[float]] = []
        self._outcome_classes: list[np.ndarray] = []
        for sender in range(n):
            indices: list[int] = []
            for _length, path, probability in law.entries(sender):
                observation = observation_from_path(
                    sender,
                    path,
                    self._compromised,
                    receiver_compromised=model.receiver_compromised,
                )
                key = observation_class_key(observation, model.adversary)
                index = index_of.get(key)
                if index is None:
                    index = index_of[key] = len(rows)
                    rows.append([0.0] * n)
                rows[index][sender] += prior * probability
                indices.append(index)
            self._outcome_classes.append(np.asarray(indices, dtype=np.int64))
        self._joint = {key: tuple(rows[index]) for key, index in index_of.items()}

    @property
    def law(self) -> TopologyPathLaw:
        """The path law the table was built from."""
        return self._law

    @property
    def joint(self) -> dict[tuple, tuple[float, ...]]:
        """Exact joint ``Pr[sender, class]`` indexed by class key."""
        return self._joint

    @property
    def outcome_classes(self) -> list[np.ndarray]:
        """Per sender, each outcome's class index: its key's position in :attr:`joint`."""
        return self._outcome_classes

    def weights(self, key: tuple) -> tuple[float, ...]:
        """Per-sender joint weights of one class key."""
        try:
            return self._joint[key]
        except KeyError:
            raise InferenceError(
                f"observation class {key!r} cannot arise on topology "
                f"{self._model.topology.spec} under this configuration"
            ) from None

    def exact_degree(self) -> float:
        """Exact ``H*(S)`` from the class table — no sampling involved.

        Identical (to floating-point accumulation order) to
        ``ExhaustiveAnalyzer.anonymity_degree`` on the same model, which the
        topology parity tests assert to ``1e-10``.
        """
        degree = 0.0
        for weights in self._joint.values():
            total = kahan_sum(weights)
            if total <= 0.0:
                continue
            posterior = [w / total for w in weights]
            degree += total * entropy_bits(posterior)
        return degree


@dataclass(frozen=True)
class SenderPosterior:
    """Posterior distribution over candidate senders for one observation."""

    probabilities: dict[int, float]

    def probability(self, node: int) -> float:
        """Posterior probability that ``node`` is the sender."""
        return self.probabilities.get(node, 0.0)

    @property
    def entropy_bits(self) -> float:
        """Shannon entropy of the posterior, in bits."""
        return entropy_bits(list(self.probabilities.values()))

    @property
    def support_size(self) -> int:
        """Number of candidates with non-zero posterior probability."""
        return sum(1 for p in self.probabilities.values() if p > 0.0)

    @property
    def most_likely(self) -> int:
        """Candidate with the highest posterior probability."""
        return max(self.probabilities, key=self.probabilities.__getitem__)

    @property
    def max_probability(self) -> float:
        """Largest posterior probability (the adversary's best single guess)."""
        return max(self.probabilities.values())

    def as_sorted_items(self) -> list[tuple[int, float]]:
        """Candidates sorted by decreasing posterior probability."""
        return sorted(self.probabilities.items(), key=lambda item: (-item[1], item[0]))


class BayesianPathInference:
    """Exact sender inference for one system model and path-length distribution."""

    def __init__(
        self,
        model: SystemModel,
        distribution: PathLengthDistribution,
        compromised: frozenset[int] | set[int] | None = None,
    ) -> None:
        if (
            model.path_model is not PathModel.CYCLE_ALLOWED
            and distribution.max_length > model.max_simple_path_length
        ):
            raise ConfigurationError(
                f"distribution {distribution.name} exceeds the maximum simple-path "
                f"length for N={model.n_nodes}; truncate it first"
            )
        self._model = model
        self._distribution = distribution
        if compromised is None:
            compromised = model.compromised_nodes()
        self._compromised = frozenset(compromised)
        if len(self._compromised) != model.n_compromised:
            raise ConfigurationError(
                f"expected {model.n_compromised} compromised nodes, got "
                f"{len(self._compromised)}"
            )
        if any(not 0 <= node < model.n_nodes for node in self._compromised):
            raise ConfigurationError("compromised node identities must lie in [0, N)")
        #: Lazily-built class table for non-clique topologies; the clique
        #: branches below never pay for it.
        self._topology_table: TopologyClassTable | None = None
        #: Memoised cycle segment series, one per ``closed`` flag.
        self._segment_series: dict[bool, tuple[float, ...]] = {}

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> SystemModel:
        """The system model used for inference."""
        return self._model

    @property
    def distribution(self) -> PathLengthDistribution:
        """The path-length distribution assumed known to the adversary."""
        return self._distribution

    @property
    def compromised(self) -> frozenset[int]:
        """The adversary's compromised node identities."""
        return self._compromised

    def posterior(self, observation: Observation) -> SenderPosterior:
        """Exact posterior over senders given one observation."""
        adversary = self._model.adversary
        if not self._model.clique_routing:
            return self._posterior_topology(observation)
        if self._model.path_model is PathModel.CYCLE_ALLOWED:
            return self._posterior_cycle(observation)
        if adversary is AdversaryModel.FULL_BAYES:
            return self._posterior_full_bayes(observation.without_positions())
        if adversary is AdversaryModel.POSITION_AWARE:
            return self._posterior_position_aware(observation)
        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            return self._posterior_predecessor_only(observation)
        raise ConfigurationError(f"unsupported adversary model {adversary!r}")

    # ------------------------------------------------------------------ #
    # Arbitrary topologies                                                #
    # ------------------------------------------------------------------ #

    def _posterior_topology(self, observation: Observation) -> SenderPosterior:
        """Exact posterior on a non-clique topology, via the class table.

        The clique branches exploit relabelling symmetry that a general graph
        does not have, so topology inference compares the observation's
        canonical class key against the exact joint distribution enumerated
        from the :class:`~repro.core.topology.TopologyPathLaw`.  Posterior
        computation stays exact — only the table construction cost depends on
        the topology's path count.
        """
        if observation.origin_node is not None:
            return self._delta_posterior(observation.origin_node)
        table = self.topology_table()
        key = observation_class_key(observation, self._model.adversary)
        weights = table.weights(key)
        return self._normalise(dict(enumerate(weights)))

    def topology_table(self) -> TopologyClassTable:
        """The (lazily built) exact class table of a topology-routed model."""
        if self._topology_table is None:
            self._topology_table = TopologyClassTable(
                self._model, self._distribution, self._compromised
            )
        return self._topology_table

    # ------------------------------------------------------------------ #
    # FULL_BAYES                                                          #
    # ------------------------------------------------------------------ #

    def _posterior_full_bayes(self, observation: Observation) -> SenderPosterior:
        if observation.origin_node is not None:
            return self._delta_posterior(observation.origin_node)

        fragments = observation.to_fragments()
        # A compromised sender would have filed an origin report.  Honest
        # candidates the observation does not name all meet the same
        # count_arrangements case (not anchored, not on the path, the same
        # pool size), so they form one orbit priced by one representative.
        weights = self._orbit_weights(
            zero=self._compromised,
            named=fragments.observed_on_path | fragments.absent_nodes,
            likelihood=lambda candidate: self._candidate_likelihood(
                candidate, fragments
            ),
        )
        return self._normalise(weights)

    def _candidate_likelihood(self, candidate: int, fragments: FragmentSet) -> float:
        likelihood = 0.0
        for length, prob in self._distribution.items():
            denominator = total_paths(self._model.n_nodes, length)
            if denominator == 0:
                continue
            count = count_arrangements(
                self._model.n_nodes, candidate, length, fragments
            )
            if count:
                likelihood += prob * count / denominator
        return likelihood

    # ------------------------------------------------------------------ #
    # POSITION_AWARE                                                      #
    # ------------------------------------------------------------------ #

    def _posterior_position_aware(self, observation: Observation) -> SenderPosterior:
        if observation.origin_node is not None:
            return self._delta_posterior(observation.origin_node)
        for report in observation.hop_reports:
            if report.position is None:
                raise InferenceError(
                    "the position-aware adversary requires hop positions in every report"
                )

        # Pin every node whose absolute position is revealed by some report.
        pinned: dict[int, int] = {}  # position (1-based) -> node
        sender_seen: int | None = None
        for report in observation.hop_reports:
            position = report.position
            assert position is not None
            self._pin(pinned, position, report.node)
            if position == 1:
                sender_seen = report.predecessor
            else:
                self._pin(pinned, position - 1, report.predecessor)
            if report.successor != RECEIVER:
                self._pin(pinned, position + 1, report.successor)

        if sender_seen is not None:
            return self._delta_posterior(sender_seen)

        last_intermediate = (
            observation.receiver_report.predecessor
            if observation.receiver_report is not None
            else None
        )
        ends_at_receiver_positions = [
            report.position
            for report in observation.hop_reports
            if report.successor == RECEIVER and report.position is not None
        ]
        known_length = ends_at_receiver_positions[0] if ends_at_receiver_positions else None

        # Besides the pinned nodes, only the receiver-reported last
        # intermediate enters the likelihood by identity; every other honest
        # candidate shares one orbit weight.
        weights = self._orbit_weights(
            zero=self._compromised.union(pinned.values()),
            named=frozenset() if last_intermediate is None else {last_intermediate},
            likelihood=lambda candidate: self._position_aware_likelihood(
                candidate, pinned, last_intermediate, known_length
            ),
        )
        if all(weight == 0.0 for weight in weights.values()):
            # No intermediate evidence at all (e.g. a direct path with only the
            # receiver's report): fall back to the full-Bayes computation,
            # which handles the length-zero ambiguity.
            return self._posterior_full_bayes(observation.without_positions())
        return self._normalise(weights)

    @staticmethod
    def _pin(pinned: dict[int, int], position: int, node: int) -> None:
        existing = pinned.get(position)
        if existing is not None and existing != node:
            raise InferenceError(
                f"conflicting reports pin both node {existing} and node {node} "
                f"at path position {position}"
            )
        pinned[position] = node

    def _position_aware_likelihood(
        self,
        candidate: int,
        pinned: dict[int, int],
        last_intermediate: int | None,
        known_length: int | None,
    ) -> float:
        n = self._model.n_nodes
        likelihood = 0.0
        max_pinned = max(pinned) if pinned else 0
        for length, prob in self._distribution.items():
            if known_length is not None and length != known_length:
                continue
            if length < max_pinned:
                continue
            pinned_here = dict(pinned)
            if last_intermediate is not None:
                if length == 0:
                    if last_intermediate != candidate:
                        continue
                else:
                    existing = pinned_here.get(length)
                    if existing is not None and existing != last_intermediate:
                        continue
                    if (
                        last_intermediate in pinned_here.values()
                        and pinned_here.get(length) != last_intermediate
                    ):
                        continue
                    pinned_here[length] = last_intermediate
            if candidate in pinned_here.values():
                continue
            distinct_pinned = set(pinned_here.values())
            if length > 0 and candidate == last_intermediate:
                continue
            free = length - len(distinct_pinned)
            if free < 0:
                continue
            pool = n - 1 - len(distinct_pinned) - len(
                self._compromised.difference(distinct_pinned).difference({candidate})
            )
            count = falling_factorial(pool, free)
            denominator = total_paths(n, length)
            if denominator and count:
                likelihood += prob * count / denominator
        return likelihood

    # ------------------------------------------------------------------ #
    # PREDECESSOR_ONLY (Crowds-style)                                     #
    # ------------------------------------------------------------------ #

    def _posterior_predecessor_only(self, observation: Observation) -> SenderPosterior:
        n = self._model.n_nodes
        if observation.origin_node is not None:
            return self._delta_posterior(observation.origin_node)

        if not observation.hop_reports:
            # The weak adversary ignores the receiver's report entirely; it
            # only learns that none of its own nodes originated the message.
            weights = {
                node: 0.0 if node in self._compromised else 1.0 for node in range(n)
            }
            return self._normalise(weights)

        first = observation.hop_reports[0]
        predecessor = first.predecessor

        # Likelihood that the first compromised node on the path has the
        # observed predecessor, marginalised over the path length and the
        # (unknown) position of that node.
        special = 0.0  # candidate == predecessor (the node was at position 1)
        other = 0.0  # any other honest candidate
        honest_others = n - 1 - len(self._compromised)
        for length, prob in self._distribution.items():
            if length < 1:
                continue
            # Position of the *first* compromised node on the path.
            for position in range(1, length + 1):
                p_first_here = self._first_compromised_at(position, length)
                if p_first_here == 0.0:
                    continue
                if position == 1:
                    special += prob * p_first_here
                elif honest_others > 0:
                    # The predecessor of the first compromised node is, by
                    # definition of "first", an honest node; given the sender
                    # it is uniform over the honest nodes other than the sender.
                    other += prob * p_first_here / honest_others
        weights = {}
        for candidate in range(n):
            if candidate in self._compromised:
                weights[candidate] = 0.0
            elif candidate == predecessor:
                weights[candidate] = special
            else:
                weights[candidate] = other
        return self._normalise(weights)

    def _first_compromised_at(self, position: int, length: int) -> float:
        """Probability that the first compromised node on a length-``length`` path sits at ``position``."""
        n = self._model.n_nodes
        c = len(self._compromised)
        honest_pool = n - 1 - c  # honest nodes other than the sender
        probability = 1.0
        available_honest = honest_pool
        available_total = n - 1
        for _ in range(position - 1):
            if available_honest <= 0 or available_total <= 0:
                return 0.0
            probability *= available_honest / available_total
            available_honest -= 1
            available_total -= 1
        if available_total <= 0:
            return 0.0
        probability *= c / available_total
        return probability

    # ------------------------------------------------------------------ #
    # CYCLE_ALLOWED paths (any number of compromised nodes)               #
    # ------------------------------------------------------------------ #
    #
    # A cycle path of length l from sender i is a uniform walk on K_N
    # without self-loops: probability (N-1)**-l each.  The compromised set
    # splits a consistent walk into honest segments (walks in the honest
    # sub-clique K_{N-C}); the observation pins each segment's endpoints, so
    # the likelihood of candidate i is a sum over segment-length compositions
    # of products of clique walk counts.  Adjacent compromised visits
    # (possible only for C > 1) consume one fixed edge and no honest segment.
    # Every factor except the first (i -> first observed predecessor) is
    # candidate-independent, so posteriors are two-valued over the honest
    # nodes: one weight for the first predecessor, one for everybody else.

    def _posterior_cycle(self, observation: Observation) -> SenderPosterior:
        if observation.origin_node is not None:
            return self._delta_posterior(observation.origin_node)
        for report in observation.hop_reports:
            if report.node not in self._compromised:
                raise InferenceError(
                    f"cycle inference expects every hop report to come from a "
                    f"compromised node, got a report from {report.node}"
                )
        adversary = self._model.adversary
        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            return self._cycle_predecessor_only(observation)
        if not observation.hop_reports:
            return self._cycle_silent(observation)
        if adversary is AdversaryModel.POSITION_AWARE:
            return self._cycle_position_aware(observation)
        return self._cycle_full_bayes(observation)

    def _honest_walk(self, edges: int, closed: bool) -> float:
        """Normalised walk count in the honest sub-clique ``K_{N-C}``.

        Counts of ``edges``-step walks with both endpoints pinned that avoid
        every compromised node, divided by the ``(N-1)**edges`` total of all
        walks — the exact per-segment likelihood factor of a pinned honest
        segment.  For ``C = 1`` the per-step avoidance ratio is exactly one,
        reproducing the original single-compromised form bit for bit.
        """
        return normalized_avoiding_walks(
            self._model.n_nodes, len(self._compromised), edges, closed
        )

    def _zero_compromised(self, weights: dict[int, float]) -> SenderPosterior:
        """Zero out compromised candidates (they would have filed an origin report)."""
        for node in self._compromised:
            weights[node] = 0.0
        return self._normalise(weights)

    def _cycle_silent(self, observation: Observation) -> SenderPosterior:
        """All compromised nodes saw nothing: the path is one honest walk."""
        n = self._model.n_nodes
        if observation.receiver_report is None:
            # No evidence beyond silence: every honest sender explains it
            # with the same probability sum(P(l) * ((N-C-1)/(N-1))**l).
            return self._zero_compromised({node: 1.0 for node in range(n)})
        witness = observation.receiver_report.predecessor
        special = 0.0
        common = 0.0
        for length, prob in self._distribution.items():
            special += prob * self._honest_walk(length, closed=True)
            common += prob * self._honest_walk(length, closed=False)
        weights = {node: common for node in range(n)}
        weights[witness] = special
        return self._zero_compromised(weights)

    def _cycle_full_bayes(self, observation: Observation) -> SenderPosterior:
        n = self._model.n_nodes
        reports = observation.hop_reports
        for report in reports[:-1]:
            if report.successor == RECEIVER:
                raise InferenceError(
                    "only the last hop report of a compromised node may hand "
                    "the message to the receiver"
                )
        if reports[0].predecessor in self._compromised:
            raise InferenceError(
                "the first compromised visit cannot have a compromised "
                "predecessor: that node would have reported an earlier visit"
            )
        m_last = reports[-1].successor == RECEIVER
        if m_last and observation.receiver_report is not None:
            if observation.receiver_report.predecessor != reports[-1].node:
                raise InferenceError(
                    "a compromised node reports delivering to the receiver, "
                    "but the receiver reports a different predecessor"
                )

        # Walks consume one fixed edge into the first visit, one or two fixed
        # edges per inter-visit gap (one when the two visits sit adjacent on
        # the path, two around a pinned honest segment), and one fixed edge
        # out of the final visit unless it delivered to the receiver itself.
        # Free edges are distributed over the honest segments by convolution.
        offset = 1
        gap_closed: list[bool | None] = []  # None marks an adjacent gap
        for first, second in zip(reports, reports[1:]):
            adjacent = (
                first.successor != RECEIVER
                and first.successor in self._compromised
            )
            if adjacent or second.predecessor in self._compromised:
                if first.successor != second.node or second.predecessor != first.node:
                    raise InferenceError(
                        "adjacent compromised visits disagree: successor "
                        f"{first.successor!r} / predecessor {second.predecessor!r} "
                        f"do not pin reports from {first.node} and {second.node} "
                        "next to each other"
                    )
                offset += 1
                gap_closed.append(None)
            else:
                offset += 2
                gap_closed.append(first.successor == second.predecessor)
        if not m_last:
            offset += 1
        max_free = self._distribution.max_length - offset
        if max_free < 0:
            raise InferenceError(
                "the observation requires a longer path than the length "
                "distribution supports"
            )

        # Candidate-independent factors: the honest segments between
        # non-adjacent visits, plus the tail segment after the last visit
        # (absent when a compromised node itself delivered to the receiver).
        factors: list[Sequence[float]] = [
            self._segment_factor(max_free, closed)
            for closed in gap_closed
            if closed is not None
        ]
        if not m_last:
            if observation.receiver_report is not None:
                witness = observation.receiver_report.predecessor
                if witness in self._compromised:
                    raise InferenceError(
                        f"the receiver reports compromised predecessor {witness}, "
                        "which filed no matching delivery report"
                    )
                factors.append(
                    self._segment_factor(
                        max_free, reports[-1].successor == witness
                    )
                )
            else:
                # Honest receiver: the tail walk may end at any honest node,
                # contributing ((N-C-1)/(N-1))**e after per-step normalisation.
                factors.append([
                    normalized_free_walks(n, len(self._compromised), edges)
                    for edges in range(max_free + 1)
                ])
        rest = [1.0]
        for factor in factors:
            rest = _truncated_convolution(rest, factor, max_free)

        first_predecessor = reports[0].predecessor
        special_head = self._segment_factor(max_free, closed=True)
        common_head = self._segment_factor(max_free, closed=False)
        special_sums = _truncated_convolution(special_head, rest, max_free)
        common_sums = _truncated_convolution(common_head, rest, max_free)

        special = 0.0
        common = 0.0
        for length, prob in self._distribution.items():
            free = length - offset
            if free < 0:
                continue
            special += prob * special_sums[free]
            common += prob * common_sums[free]
        weights = {node: common for node in range(n)}
        weights[first_predecessor] = special
        return self._zero_compromised(weights)

    def _segment_factor(self, max_free: int, closed: bool) -> tuple[float, ...]:
        """Normalised honest-walk counts for one pinned segment, by edge count.

        One series per ``closed`` flag is memoised, as long as the
        distribution's longest path, and each class takes its first
        ``max_free + 1`` terms.  A term depends on its edge count alone, so
        the slice equals the series a class would build for itself.
        """
        series = self._segment_series.get(closed)
        if series is None:
            series = tuple(
                self._honest_walk(edges, closed)
                for edges in range(self._distribution.max_length + 1)
            )
            self._segment_series[closed] = series
        return series[: max_free + 1]

    def _cycle_position_aware(self, observation: Observation) -> SenderPosterior:
        n = self._model.n_nodes
        first = observation.hop_reports[0]
        if any(report.position is None for report in observation.hop_reports):
            raise InferenceError(
                "the position-aware adversary requires hop positions in every report"
            )
        if first.position == 1:
            # The first hop's predecessor is the sender, and the adversary
            # knows the position, so the sender is identified outright.
            return self._delta_posterior(first.predecessor)
        # Only the walk from the sender to the first compromised visit
        # depends on the candidate; every later segment has known, pinned
        # endpoints and factors out of the posterior.
        edges = first.position - 1
        weights = {
            node: self._honest_walk(edges, closed=(node == first.predecessor))
            for node in range(n)
        }
        return self._zero_compromised(weights)

    def _cycle_predecessor_only(self, observation: Observation) -> SenderPosterior:
        n = self._model.n_nodes
        if not observation.hop_reports:
            # The weak adversary ignores the receiver entirely; silence only
            # says none of the compromised nodes is the sender.
            return self._zero_compromised({node: 1.0 for node in range(n)})
        predecessor = observation.hop_reports[0].predecessor
        # Likelihood of "the first compromised visit had predecessor p" for
        # sender i: the first q-1 hops are an honest walk i -> p, hop q is
        # the reporting node, and the remaining hops are unconstrained;
        # summed over q and lengths the per-candidate part is a running sum
        # of honest walk counts.
        special = 0.0
        common = 0.0
        closed_cumulative = 0.0
        open_cumulative = 0.0
        horizon = 0
        for length, prob in self._distribution.items():
            while horizon < length:
                closed_cumulative += self._honest_walk(horizon, closed=True)
                open_cumulative += self._honest_walk(horizon, closed=False)
                horizon += 1
            special += prob * closed_cumulative
            common += prob * open_cumulative
        weights = {node: common for node in range(n)}
        weights[predecessor] = special
        return self._zero_compromised(weights)

    # ------------------------------------------------------------------ #
    # Helpers                                                             #
    # ------------------------------------------------------------------ #

    def _orbit_weights(
        self,
        zero: frozenset[int],
        named: frozenset[int] | set[int],
        likelihood: Callable[[int], float],
    ) -> dict[int, float]:
        """Per-candidate weights in candidate order, one price per orbit.

        Candidates in ``zero`` weigh nothing; those in ``named`` enter the
        likelihood by identity and are priced one by one; every remaining
        candidate is exchangeable with the others, so the first one prices
        the whole orbit.  Equal integer counts give equal floats, and the
        dict is filled in order ``0 .. N-1``, so the normalised posterior is
        bit-identical to pricing all ``N`` candidates.
        """
        weights: dict[int, float] = {}
        orbit: float | None = None
        for candidate in range(self._model.n_nodes):
            if candidate in zero:
                weights[candidate] = 0.0
            elif candidate in named:
                weights[candidate] = likelihood(candidate)
            else:
                if orbit is None:
                    orbit = likelihood(candidate)
                weights[candidate] = orbit
        return weights

    def _delta_posterior(self, node: int) -> SenderPosterior:
        probabilities = {i: 0.0 for i in range(self._model.n_nodes)}
        probabilities[node] = 1.0
        return SenderPosterior(probabilities)

    def _normalise(self, weights: dict[int, float]) -> SenderPosterior:
        total = sum(weights.values())
        if total <= 0.0:
            raise InferenceError(
                "the observation is inconsistent with every candidate sender; "
                "check that the observation matches the system model"
            )
        return SenderPosterior({node: w / total for node, w in weights.items()})


def _truncated_convolution(
    a: Sequence[float], b: Sequence[float], max_edges: int
) -> list[float]:
    """Convolution of two edge-count series, truncated at ``max_edges``.

    ``out[t] = sum(a[i] * b[t - i])`` — the walk-count series of two adjacent
    honest segments whose combined edge budget is ``t``.  Entries beyond the
    distribution's longest path can never contribute to a likelihood, so they
    are dropped rather than computed.

    The whole series is one product and one reduction: row ``i`` of a
    Toeplitz view holds ``b`` shifted right by ``i`` (a sliding window over
    a zero-padded copy of ``b``, rows reversed), each row is scaled by
    ``a[i]``, and ``np.add.reduce(..., axis=0)`` adds the rows in ascending
    ``i``, the scalar double loop's order.  The cells that loop skips (out
    of range, or ``a[i] == 0``) add ``+0.0`` to a non-negative sum, which
    changes nothing, so every output is the scalar loop's float bit for bit.
    """
    width = max_edges + 1
    left = np.asarray(a[:width], dtype=float)
    right = np.asarray(b[:width], dtype=float)
    padded = np.zeros(len(left) + width)
    padded[len(left) : len(left) + len(right)] = right
    # Window s starts at padded[s]; row i of the view is window len(left) - i.
    toeplitz = sliding_window_view(padded, width)[:0:-1]
    return np.add.reduce(left[:, None] * toeplitz, axis=0).tolist()
