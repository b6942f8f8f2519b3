"""Exact computation of the anonymity degree ``H*(S)`` (paper, Section 5).

The anonymity degree of a system is the expected Shannon entropy of the
adversary's posterior distribution over senders:

    H*(S) = sum over observations E of  Pr[E] * H(sender | E)

This module computes ``H*(S)`` *exactly* for the setting the paper analyses
numerically: one compromised node (plus the compromised receiver), simple
rerouting paths on a clique of ``N`` nodes, and an arbitrary path-length
distribution.  The computation exploits the symmetric observation classes
described in :mod:`repro.core.events`: within a class every concrete
observation yields the same posterior entropy, so the anonymity degree is a
short weighted sum whose terms are ratios of falling factorials.

Three adversary strengths are supported (see
:class:`repro.core.model.AdversaryModel`):

* ``FULL_BAYES`` — the paper's worst-case passive adversary, which combines
  the compromised node's report, the receiver's report, its negative evidence
  (silence of compromised nodes), and the known path-length distribution into
  an exact posterior;
* ``POSITION_AWARE`` — additionally knows the hop position of the compromised
  node (an upper bound on passive adversaries, e.g. perfect timing analysis);
* ``PREDECESSOR_ONLY`` — the weaker Crowds-style adversary that only uses the
  predecessor observed by the compromised node.

For more than one compromised node use the exhaustive engine in
:mod:`repro.core.enumeration` (exact, small systems) or the Monte-Carlo
machinery in :mod:`repro.simulation` (estimates with confidence intervals,
arbitrary systems); both share the same threat-model semantics and are tested
against this module on their common domain.

Beside each adversary's event table sits a dense form of the same sum,
:meth:`AnonymityAnalyzer.degree_gradient`: ``H*`` with its exact gradient and
Hessian over a pmf vector on a fixed support, which the Section 5.4 optimiser
(:mod:`repro.core.optimizer`) calls instead of one analysis per support point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.events import EventClass, EventSummary
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.utils.mathx import falling_factorial, kahan_sum, xlog2x

__all__ = ["AnonymityAnalyzer", "AnonymityResult", "DegreeGradient", "anonymity_degree"]

#: The zero-weight rule: a candidate's share ``q`` of its class's weight is
#: floored at the unit roundoff ``2**-53`` before its log2 is taken.  The
#: entropy slope ``-log2 q`` is unbounded at ``q = 0`` (a pmf with
#: ``Pr[L = 0] = 0``, such as a fixed length), and a gradient there should
#: stay finite.  A weight whose share is below the floor is lost in
#: rounding when added to its class's total, and its entropy term
#: ``q*log2(1/q)`` is under 6e-15 bits, so the floor moves the gradient
#: only where the value cannot see the weight.
_SHARE_FLOOR = math.ldexp(1.0, -53)

#: One observation class of a :class:`DegreeGradient`: its probability,
#: special-weight and other-weight rows over the support, and its count of
#: other candidates.
_GradientClass = tuple[np.ndarray, np.ndarray, np.ndarray, int]


@dataclass(frozen=True)
class AnonymityResult:
    """Result of one exact anonymity-degree computation."""

    #: The anonymity degree ``H*(S)`` in bits.
    degree_bits: float
    #: The system model the computation was performed for.
    model: SystemModel
    #: Name of the path-length distribution analysed.
    distribution: str
    #: Per-observation-class breakdown (probability, entropy, contribution).
    events: tuple[EventSummary, ...]

    @property
    def normalized_degree(self) -> float:
        """Anonymity degree normalised by its upper bound ``log2 N`` (in [0, 1])."""
        upper = self.model.max_entropy
        if upper <= 0.0:
            return 0.0
        return self.degree_bits / upper

    def event(self, event_class: EventClass) -> EventSummary:
        """Return the summary row for one observation class."""
        for summary in self.events:
            if summary.event is event_class:
                return summary
        raise KeyError(f"no summary for event class {event_class!r}")


def _split_entropy(
    special: np.ndarray, other: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Posterior entropy of one candidate of weight ``special`` and ``counts`` of ``other``.

    The array form of :meth:`AnonymityAnalyzer._class_entropy`, elementwise.
    Returns ``(entropy_bits, total, log2 special share, log2 other share)``.
    A total of zero reads as one, so an empty posterior has entropy zero;
    shares are floored at :data:`_SHARE_FLOOR` before their log2.
    """
    total = special + counts * other
    total = np.where(total > 0.0, total, 1.0)
    special_share = special / total
    other_share = other / total
    log_special = np.log2(np.maximum(special_share, _SHARE_FLOOR))
    log_other = np.log2(np.maximum(other_share, _SHARE_FLOOR))
    entropy = -(special_share * log_special + counts * other_share * log_other)
    return entropy, total, log_special, log_other


@dataclass(frozen=True, eq=False)
class DegreeGradient:
    """``H*`` with its gradient and Hessian over dense pmfs on one support of path lengths.

    Built by :meth:`AnonymityAnalyzer.degree_gradient`.  Each observation
    class whose posterior depends on the pmf ``p`` is four things: a
    probability row ``a``, a special-weight row ``s``, an other-weight row
    ``o`` and a candidate count ``k``.  The class occurs with probability
    ``P = a.p``, and its posterior weighs one candidate ``s.p`` and each of
    ``k`` others ``o.p``, so ``H*`` adds ``P * H(s.p, o.p)``.  Classes whose
    posterior does not depend on ``p`` add ``c.p`` through one row ``c``.

    With ``T = s + k*o``, ``dH/ds = (-H - log2(s/T)) / T`` and
    ``dH/do = k * (-H - log2(o/T)) / T``.  A class of total weight zero has
    ``P = 0``; its partial derivative along each length is that length's own
    probability times the entropy of that length's own weights.
    """

    #: ``(3, classes, lengths)``: the probability, special and other rows.
    rows: np.ndarray
    #: ``(classes,)``: each class's count ``k`` of other candidates.
    counts: np.ndarray
    #: ``(lengths,)``: the probability-weighted entropy of the classes whose
    #: posterior does not depend on the pmf.
    constant: np.ndarray

    def __call__(self, pmf: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(H* in bits, dH*/dpmf)`` at the pmf vector ``pmf``."""
        probability, special, other = self.rows @ pmf
        entropy, total, log_special, log_other = _split_entropy(special, other, self.counts)
        slope = probability / total
        gradient = (
            entropy @ self.rows[0]
            + (slope * (-entropy - log_special)) @ self.rows[1]
            + (slope * self.counts * (-entropy - log_other)) @ self.rows[2]
            + self.constant
        )
        empty = special + self.counts * other <= 0.0
        if empty.any():
            own_entropy = _split_entropy(
                self.rows[1, empty], self.rows[2, empty], self.counts[empty, None]
            )[0]
            gradient = gradient + (self.rows[0, empty] * own_entropy).sum(axis=0)
        return float(probability @ entropy + self.constant @ pmf), gradient

    def second_order(self, pmf: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Return ``(H* in bits, dH*/dpmf, d2H*/dpmf2)`` at a strictly positive pmf.

        The Hessian is ``sum over classes of R.T @ M @ R``, where ``R``
        stacks the class's rows ``a``, ``s`` and ``o`` and ``M`` holds the
        second derivatives of ``P * H(s, o)`` in ``(P, s, o)``:
        ``[[0, H_s, H_o], [H_s, P*H_ss, P*H_so], [H_o, P*H_so, P*H_oo]]``.
        With shares ``u = s/T`` and ``v = o/T`` and ``c = 1 / (T ln 2)``,

        * ``T * H_ss = -2*H_s - c*k*v/u``,
        * ``T * H_so = -H_o - k*H_s + c*k``,
        * ``T * H_oo = -2*k*H_o - c*k*u/v``.

        ``P`` is proportional to ``T`` within a class, so each ``P * H_..``
        is taken as ``(P/T) * (T * H_..)``.  A share below the zero-weight
        floor has a constant log2 in the gradient, so its ``1/u`` or ``1/v``
        term is dropped: the Hessian stays finite, and matches the
        gradient wherever the gradient moves.  Every class needs positive
        special and other weights: every entry of the pmf positive
        suffices, because :meth:`AnonymityAnalyzer.degree_gradient` folds
        the classes whose special or other row is zero on the whole
        support into ``constant``.
        """
        probability, special, other = self.rows @ pmf
        counts = self.counts
        entropy, total, log_special, log_other = _split_entropy(special, other, counts)
        slope = probability / total
        # The gradient as __call__ forms it, bit for bit.
        gradient = (
            entropy @ self.rows[0]
            + (slope * (-entropy - log_special)) @ self.rows[1]
            + (slope * counts * (-entropy - log_other)) @ self.rows[2]
            + self.constant
        )
        d_special = (-entropy - log_special) / total
        d_other = counts * (-entropy - log_other) / total
        special_share, other_share = special / total, other / total
        curvature = counts / (total * math.log(2.0))  # k * c
        special_bend = np.where(
            special_share >= _SHARE_FLOOR, other_share / np.maximum(special_share, _SHARE_FLOOR), 0.0
        )
        other_bend = np.where(
            other_share >= _SHARE_FLOOR, special_share / np.maximum(other_share, _SHARE_FLOOR), 0.0
        )
        second = np.zeros((len(counts), 3, 3))
        second[:, 0, 1] = second[:, 1, 0] = d_special
        second[:, 0, 2] = second[:, 2, 0] = d_other
        second[:, 1, 1] = slope * (-2.0 * d_special - curvature * special_bend)
        second[:, 1, 2] = second[:, 2, 1] = slope * (-d_other - counts * d_special + curvature)
        second[:, 2, 2] = slope * (-2.0 * counts * d_other - curvature * other_bend)
        # rows is (3, classes, lengths); R.T @ M @ R summed over classes is
        # one product over the flattened (row kind, class) axis.
        weighted = np.einsum("cij,jcl->icl", second, self.rows)
        hessian = self.rows.reshape(-1, len(pmf)).T @ weighted.reshape(-1, len(pmf))
        return float(probability @ entropy + self.constant @ pmf), gradient, hessian


class AnonymityAnalyzer:
    """Exact anonymity-degree computations for a single-compromised-node system."""

    def __init__(self, model: SystemModel) -> None:
        if model.n_compromised != 1:
            raise ConfigurationError(
                "AnonymityAnalyzer computes the exact closed form for exactly one "
                f"compromised node; got n_compromised={model.n_compromised}. "
                "Use repro.core.enumeration.ExhaustiveAnalyzer (exact, small N) or "
                "the batch backend (estimates) for other cases."
            )
        if model.path_model is not PathModel.SIMPLE:
            raise ConfigurationError(
                "AnonymityAnalyzer covers simple rerouting paths; for cycle-allowed "
                "paths use repro.core.enumeration.ExhaustiveAnalyzer (exact, small N) "
                "or the batch backend (estimates)."
            )
        if not model.receiver_compromised:
            raise ConfigurationError(
                "The paper's model assumes the receiver is compromised; set "
                "receiver_compromised=True or use the enumeration engine."
            )
        if not model.clique_routing:
            raise ConfigurationError(
                "AnonymityAnalyzer's closed forms assume clique routing; topology "
                f"{model.topology.spec} needs repro.core.enumeration (exact) or "
                "the topology batch engine (estimates)."
            )
        self._model = model
        #: Path length -> its falling-factorial row (see :meth:`_coefficients`).
        self._memo: dict[int, tuple[float, float, float, float, float]] = {}

    # ------------------------------------------------------------------ #
    # Public API                                                          #
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> SystemModel:
        """The system model this analyzer was built for."""
        return self._model

    def anonymity_degree(self, distribution: PathLengthDistribution) -> float:
        """Return ``H*(S)`` in bits for the given path-length distribution."""
        return self.analyze(distribution).degree_bits

    def analyze(self, distribution: PathLengthDistribution) -> AnonymityResult:
        """Return the anonymity degree together with the per-event breakdown."""
        self._check_distribution(distribution)
        adversary = self._model.adversary
        if adversary is AdversaryModel.FULL_BAYES:
            events = self._events_full_bayes(distribution)
        elif adversary is AdversaryModel.POSITION_AWARE:
            events = self._events_position_aware(distribution)
        elif adversary is AdversaryModel.PREDECESSOR_ONLY:
            events = self._events_predecessor_only(distribution)
        else:  # pragma: no cover - exhaustiveness guard
            raise ConfigurationError(f"unsupported adversary model {adversary!r}")
        degree = sum(summary.contribution_bits for summary in events)
        return AnonymityResult(
            degree_bits=degree,
            model=self._model,
            distribution=distribution.name,
            events=tuple(events),
        )

    def degree_for_fixed_length(self, length: int) -> float:
        """Convenience wrapper: anonymity degree of the fixed-length strategy ``F(length)``."""
        from repro.distributions.fixed import FixedLength

        return self.anonymity_degree(FixedLength(length))

    def degree_gradient(self, lengths: Sequence[int]) -> DegreeGradient:
        """``H*`` and its exact gradient over dense pmfs on ``lengths``.

        The returned callable maps a pmf vector (entry ``i`` is the
        probability of ``lengths[i]``) to ``(H* in bits, dH*/dpmf)``, and
        its :meth:`~DegreeGradient.second_order` adds the Hessian.  Its
        value equals :meth:`analyze` of the same pmf up to rounding.
        """
        support = np.asarray(lengths, dtype=np.int64)
        max_len = self._model.max_simple_path_length
        if support.size == 0 or support.min() < 0 or support.max() > max_len:
            raise ConfigurationError(
                f"path lengths must lie within [0, {max_len}] for a system of "
                f"{self._model.n_nodes} nodes; got {list(lengths)}"
            )
        adversary = self._model.adversary
        if adversary is AdversaryModel.FULL_BAYES:
            classes, constant = self._gradient_full_bayes(support)
        elif adversary is AdversaryModel.POSITION_AWARE:
            classes, constant = self._gradient_position_aware(support)
        elif adversary is AdversaryModel.PREDECESSOR_ONLY:
            classes, constant = self._gradient_predecessor_only(support)
        else:  # pragma: no cover - exhaustiveness guard
            raise ConfigurationError(f"unsupported adversary model {adversary!r}")
        # A class whose special or other row is zero on the whole support
        # has a posterior the pmf cannot move: uniform over its k others
        # (log2 k bits) without a special candidate, a point (0 bits)
        # without others.  Folding it into the constant row leaves the
        # value and gradient unchanged up to rounding, and keeps the
        # Hessian finite.
        # n - 3 and n - 4 are negative in the smallest systems, which have
        # no such candidates.
        kept: list[_GradientClass] = []
        for probability, special, other, count in classes:
            count = max(count, 0)
            if count > 0 and np.any(other):
                if np.any(special):
                    kept.append((probability, special, other, count))
                else:
                    constant = constant + probability * math.log2(count)
        rows = np.zeros((3, len(kept), len(support)))
        for index, (probability, special, other, _) in enumerate(kept):
            rows[:, index] = probability, special, other
        return DegreeGradient(
            rows=rows,
            counts=np.array([count for *_, count in kept], dtype=float),
            constant=constant,
        )

    # ------------------------------------------------------------------ #
    # Shared helpers                                                      #
    # ------------------------------------------------------------------ #

    def _check_distribution(self, distribution: PathLengthDistribution) -> None:
        max_len = self._model.max_simple_path_length
        if distribution.max_length > max_len:
            raise ConfigurationError(
                f"distribution {distribution.name} assigns probability to path length "
                f"{distribution.max_length}, but a simple path in a system of "
                f"{self._model.n_nodes} nodes has at most {max_len} intermediate nodes. "
                "Truncate the distribution first (PathLengthDistribution.truncated)."
            )

    def _coefficients(self, length: int) -> tuple[float, float, float, float, float]:
        """The falling factorials of the class weights at ``length >= 1``, memoised.

        The row is ``(den, silent, last, penultimate, interior)``: ``(N-1)_l``
        and the numerators ``(N-3)_{l-1}``, ``(N-3)_{l-2}``, ``(N-4)_{l-3}``
        and ``(N-5)_{l-4}`` (``0.0`` where ``l`` is too short for the class).
        They are stored as the floats that ``prob * numerator / den`` converts
        the exact integers to, so every weight term keeps its bits.  Beyond
        ``N ~ 171`` that conversion overflows; such a row holds the exactly
        rounded ratios ``numerator / den`` over a unit denominator instead.
        """
        row = self._memo.get(length)
        if row is None:
            n = self._model.n_nodes
            den = falling_factorial(n - 1, length)
            silent = falling_factorial(n - 3, length - 1)
            last = falling_factorial(n - 3, length - 2) if length >= 2 else 0
            pen = falling_factorial(n - 4, length - 3) if length >= 3 else 0
            interior = falling_factorial(n - 5, length - 4) if length >= 4 else 0
            try:
                row = (float(den), float(silent), float(last), float(pen), float(interior))
            except OverflowError:
                row = (1.0, silent / den, last / den, pen / den, interior / den)
            self._memo[length] = row
        return row

    def _ratio_rows(self, support: np.ndarray) -> np.ndarray:
        """The full-Bayes other-weight ratios per length of ``support``.

        Rows are ``silent / den``, ``last / den``, ``penultimate / den`` and
        ``(l - 3) * interior / den`` from :meth:`_coefficients` (zero at
        ``l = 0``, and wherever ``l`` is too short for the class).
        """
        rows = np.zeros((4, len(support)))
        for column, length in enumerate(support.tolist()):
            if length >= 1:
                den, *numerators = self._coefficients(length)
                rows[:, column] = [numerator / den for numerator in numerators]
        rows[3] *= np.maximum(support - 3, 0)
        return rows

    @staticmethod
    def _class_entropy(special_weight: float, other_weight: float, n_others: int) -> tuple[float, int, float]:
        """Entropy of a posterior with one special candidate and ``n_others`` symmetric ones.

        Returns ``(entropy_bits, support_size, top_probability)``.  The weight
        arguments are unnormalised likelihood values; zero-weight candidates
        drop out of the support.
        """
        special = [special_weight] if special_weight > 0.0 else []
        others = [other_weight] * n_others if other_weight > 0.0 else []
        weights = special + others
        if not weights:
            return 0.0, 0, 0.0
        total = sum(weights)
        # Equal weights give equal probabilities and equal entropy terms, so
        # each is computed once and repeated: the sums see the same sequence
        # a per-candidate loop would.
        top = 0.0
        terms: list[float] = []
        for group in (special, others):
            if group:
                probability = group[0] / total
                top = max(top, probability)
                if probability > 0.0:
                    terms += [xlog2x(probability)] * len(group)
        return -kahan_sum(terms), len(weights), top

    # ------------------------------------------------------------------ #
    # FULL_BAYES event table                                              #
    # ------------------------------------------------------------------ #

    def _events_full_bayes(self, dist: PathLengthDistribution) -> list[EventSummary]:
        n = self._model.n_nodes

        # --- Event probabilities -------------------------------------- #
        p_origin = 1.0 / n
        p_silent = sum(prob * (n - 1 - length) for length, prob in dist.items()) / n
        p_last = sum(prob for length, prob in dist.items() if length >= 1) / n
        p_penultimate = sum(prob for length, prob in dist.items() if length >= 2) / n
        p_interior = sum(prob * max(length - 2, 0) for length, prob in dist.items()) / n

        # One pass over the support appends each class's weight terms to its
        # own list in support order, so each sum() below adds the same floats
        # in the same order as a per-class pass would.  Keep sum(): CPython
        # 3.12 compensates float sums and 3.10/3.11 do not, so a += loop
        # would change the bits on one of them.
        silent_terms: list[float] = []
        last_terms: list[float] = []
        pen_terms: list[float] = []
        interior_terms: list[float] = []
        for length, prob in dist.items():
            if length < 1:
                continue
            den, silent, last, pen, interior = self._coefficients(length)
            silent_terms.append(prob * silent / den)
            if length >= 2:
                last_terms.append(prob * last / den)
            if length >= 3:
                pen_terms.append(prob * pen / den)
            if length >= 4:
                interior_terms.append(prob * (length - 3) * interior / den)

        # --- Posterior likelihood weights per class -------------------- #
        # SILENT: receiver reports w; the compromised node saw nothing.
        silent_special = dist.pmf(0)  # the reported node itself, via a direct path
        silent_entropy, silent_support, silent_top = self._class_entropy(
            silent_special, sum(silent_terms), n - 2
        )

        # LAST: the compromised node reports (p, R); the receiver reports m.
        last_special = dist.pmf(1) / (n - 1) if n >= 2 else 0.0
        last_entropy, last_support, last_top = self._class_entropy(
            last_special, sum(last_terms), n - 2
        )

        # PENULTIMATE: the compromised node's successor is the receiver's
        # reported predecessor.
        pen_special = dist.pmf(2) / ((n - 1) * (n - 2)) if n >= 3 else 0.0
        pen_other = sum(pen_terms)
        pen_entropy, pen_support, pen_top = self._class_entropy(
            pen_special, pen_other, n - 3
        )

        # INTERIOR: the compromised node's successor matches neither the
        # receiver nor the receiver's reported predecessor.  Its special
        # weight is the PENULTIMATE class's other weight.
        interior_entropy, interior_support, interior_top = self._class_entropy(
            pen_other, sum(interior_terms), n - 4
        )

        return [
            EventSummary(EventClass.ORIGIN, p_origin, 0.0, 1, 1.0),
            EventSummary(EventClass.SILENT, p_silent, silent_entropy, silent_support, silent_top),
            EventSummary(EventClass.LAST, p_last, last_entropy, last_support, last_top),
            EventSummary(
                EventClass.PENULTIMATE, p_penultimate, pen_entropy, pen_support, pen_top
            ),
            EventSummary(
                EventClass.INTERIOR, p_interior, interior_entropy, interior_support, interior_top
            ),
        ]

    def _gradient_full_bayes(self, support: np.ndarray) -> tuple[list[_GradientClass], np.ndarray]:
        """:meth:`_events_full_bayes` as :class:`DegreeGradient` rows."""
        n = self._model.n_nodes
        silent, last, pen, interior = self._ratio_rows(support)
        classes = [
            ((n - 1 - support) / n, support == 0, silent, n - 2),
            ((support >= 1) / n, (support == 1) / (n - 1), last, n - 2),
            # Length 2 exists only when n >= 3, so the max() never changes a
            # non-zero entry; it keeps n = 2 from dividing by zero.
            ((support >= 2) / n, (support == 2) / max((n - 1) * (n - 2), 1), pen, n - 3),
            (np.maximum(support - 2, 0) / n, pen, interior, n - 4),
        ]
        return classes, np.zeros(len(support))

    # ------------------------------------------------------------------ #
    # POSITION_AWARE event table                                          #
    # ------------------------------------------------------------------ #

    def _events_position_aware(self, dist: PathLengthDistribution) -> list[EventSummary]:
        n = self._model.n_nodes

        p_origin = 1.0 / n
        p_silent = sum(prob * (n - 1 - length) for length, prob in dist.items()) / n
        # The compromised node at position 1 sees the sender directly and the
        # adversary knows the position, so the sender is identified.
        p_identified = sum(prob for length, prob in dist.items() if length >= 1) / n
        p_last = sum(prob for length, prob in dist.items() if length >= 2) / n
        p_penultimate = sum(prob for length, prob in dist.items() if length >= 3) / n
        p_interior = sum(prob * max(length - 3, 0) for length, prob in dist.items()) / n

        # SILENT is identical to the FULL_BAYES case: position knowledge adds
        # nothing when the compromised node is off the path.
        silent_special = dist.pmf(0)
        silent_terms: list[float] = []
        for length, prob in dist.items():
            if length >= 1:
                den, silent = self._coefficients(length)[:2]
                silent_terms.append(prob * silent / den)
        silent_entropy, silent_support, silent_top = self._class_entropy(
            silent_special, sum(silent_terms), n - 2
        )

        def uniform_event(excluded: int) -> tuple[float, int, float]:
            candidates = max(n - excluded, 0)
            if candidates <= 0:
                return 0.0, 0, 0.0
            return math.log2(candidates), candidates, 1.0 / candidates

        last_entropy, last_support, last_top = uniform_event(2)
        pen_entropy, pen_support, pen_top = uniform_event(3)
        interior_entropy, interior_support, interior_top = uniform_event(4)

        return [
            EventSummary(EventClass.ORIGIN, p_origin + p_identified, 0.0, 1, 1.0),
            EventSummary(EventClass.SILENT, p_silent, silent_entropy, silent_support, silent_top),
            EventSummary(EventClass.LAST, p_last, last_entropy, last_support, last_top),
            EventSummary(EventClass.PENULTIMATE, p_penultimate, pen_entropy, pen_support, pen_top),
            EventSummary(
                EventClass.INTERIOR, p_interior, interior_entropy, interior_support, interior_top
            ),
        ]

    def _gradient_position_aware(
        self, support: np.ndarray
    ) -> tuple[list[_GradientClass], np.ndarray]:
        """:meth:`_events_position_aware` as :class:`DegreeGradient` rows."""
        n = self._model.n_nodes
        silent = self._ratio_rows(support)[0]
        classes = [((n - 1 - support) / n, support == 0, silent, n - 2)]
        # LAST, PENULTIMATE and INTERIOR are uniform over the candidates the
        # position leaves, whatever the pmf.
        constant = np.zeros(len(support))
        for excluded, probability in (
            (2, support >= 2),
            (3, support >= 3),
            (4, np.maximum(support - 3, 0)),
        ):
            if n - excluded > 0:
                constant += probability / n * math.log2(n - excluded)
        return classes, constant

    # ------------------------------------------------------------------ #
    # PREDECESSOR_ONLY event table                                        #
    # ------------------------------------------------------------------ #

    def _events_predecessor_only(self, dist: PathLengthDistribution) -> list[EventSummary]:
        n = self._model.n_nodes

        p_origin = 1.0 / n
        p_on_path = sum(prob * length for length, prob in dist.items()) / n
        p_silent = 1.0 - p_origin - p_on_path

        # Posterior when the compromised node is on the path: its predecessor
        # is the sender exactly when the node sits at position 1.
        special = sum(prob / (n - 1) for length, prob in dist.items() if length >= 1)
        other = sum(
            prob * (length - 1) / ((n - 1) * (n - 2))
            for length, prob in dist.items()
            if length >= 2
        )
        on_entropy, on_support, on_top = self._class_entropy(special, other, n - 2)

        # When the compromised node saw nothing this weak adversary learns only
        # that the compromised node is not the sender (it would have observed
        # its own origination), so the posterior is uniform over the others.
        silent_entropy = math.log2(n - 1) if n > 1 else 0.0

        return [
            EventSummary(EventClass.ORIGIN, p_origin, 0.0, 1, 1.0),
            EventSummary(
                EventClass.SILENT, p_silent, silent_entropy, n - 1, 1.0 / (n - 1)
            ),
            EventSummary(EventClass.INTERIOR, p_on_path, on_entropy, on_support, on_top),
            EventSummary(EventClass.LAST, 0.0, 0.0, 0, 0.0),
            EventSummary(EventClass.PENULTIMATE, 0.0, 0.0, 0, 0.0),
        ]

    def _gradient_predecessor_only(
        self, support: np.ndarray
    ) -> tuple[list[_GradientClass], np.ndarray]:
        """:meth:`_events_predecessor_only` as :class:`DegreeGradient` rows."""
        n = self._model.n_nodes
        # Lengths of 2 or more exist only when n >= 3 (see _gradient_full_bayes).
        other = np.maximum(support - 1, 0) / max((n - 1) * (n - 2), 1)
        classes = [(support / n, (support >= 1) / (n - 1), other, n - 2)]
        # SILENT: uniform over the n - 1 non-compromised nodes.  Its
        # probability 1 - 1/n - E[L]/n is written per length, (n - 1 - l)/n,
        # so the rows stay linear in the pmf.
        return classes, (n - 1 - support) / n * math.log2(n - 1)


def anonymity_degree(
    n_nodes: int,
    distribution: PathLengthDistribution,
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
) -> float:
    """Functional shorthand for the common case of one compromised node.

    Equivalent to building a :class:`SystemModel` with ``n_compromised=1`` and
    calling :meth:`AnonymityAnalyzer.anonymity_degree`.
    """
    model = SystemModel(n_nodes=n_nodes, n_compromised=1, adversary=adversary)
    return AnonymityAnalyzer(model).anonymity_degree(distribution)
