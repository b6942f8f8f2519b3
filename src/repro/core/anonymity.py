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

Each class's probability and posterior weights are linear in the pmf, so
each adversary's classes are written once, as a factor table: the classes'
kinds (one special candidate plus ``k`` others, or uniform over ``k``), and
per path length (:meth:`AnonymityAnalyzer._row`) each class's probability
coefficient and its special and other weight factors.  The table is filled
lazily, one length at a time, kept once per ``(N, adversary)`` in the
process, and read two ways.  :meth:`AnonymityAnalyzer.analyze` sums it
against one distribution's pmf; :meth:`AnonymityAnalyzer.degree_gradient`
stacks it into dense rows over a fixed support: ``H*`` of many pmfs at once,
or ``H*`` with its exact gradient and Hessian at one pmf vector.  The
Section 5.4 optimisers (:mod:`repro.core.optimizer`) search on those rows
and analyse only the strategies they report.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import mul, sub
from typing import Any, NamedTuple

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
) -> tuple[np.ndarray, ...]:
    """Posterior entropy of one candidate of weight ``special`` and ``counts`` of ``other``.

    The array form of :meth:`AnonymityAnalyzer._class_entropy`, elementwise.
    Returns ``(entropy_bits, total, special share, other share, log2
    special share, log2 other share)``.  A total of zero reads as one, so an
    empty posterior has entropy zero; shares are floored at
    :data:`_SHARE_FLOOR` before their log2.
    """
    total = special + counts * other
    total = np.where(total > 0.0, total, 1.0)
    special_share = special / total
    other_share = other / total
    log_special = np.log2(np.maximum(special_share, _SHARE_FLOOR))
    log_other = np.log2(np.maximum(other_share, _SHARE_FLOOR))
    entropy = -(special_share * log_special + counts * other_share * log_other)
    return entropy, total, special_share, other_share, log_special, log_other


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
        value, gradient, _ = self._first_order(pmf)
        return value, gradient

    def values(self, pmfs: np.ndarray) -> np.ndarray:
        """``H*`` in bits at each row of ``pmfs``, a ``(pmfs, lengths)`` matrix.

        The value half of :meth:`__call__`, for many pmfs in one pass; each
        entry equals :meth:`AnonymityAnalyzer.analyze` of its row up to
        rounding.
        """
        probability, special, other = self.rows @ pmfs.T
        entropy = _split_entropy(special, other, self.counts[:, None])[0]
        return (probability * entropy).sum(axis=0) + pmfs @ self.constant

    def _first_order(
        self, pmf: np.ndarray
    ) -> tuple[float, np.ndarray, tuple[np.ndarray, ...]]:
        """``(H*, dH*/dpmf)`` plus the per-class terms :meth:`second_order` reuses.

        The terms are ``(P/T, T, s-share, o-share, T*dH/ds, T*dH/do / k)``.
        """
        probability, special, other = self.rows @ pmf
        entropy, total, special_share, other_share, log_special, log_other = _split_entropy(
            special, other, self.counts
        )
        slope = probability / total
        special_slope = -entropy - log_special
        other_slope = -entropy - log_other
        gradient = (
            entropy @ self.rows[0]
            + (slope * special_slope) @ self.rows[1]
            + (slope * self.counts * other_slope) @ self.rows[2]
            + self.constant
        )
        empty = special + self.counts * other <= 0.0
        if empty.any():
            own_entropy = _split_entropy(
                self.rows[1, empty], self.rows[2, empty], self.counts[empty, None]
            )[0]
            gradient = gradient + (self.rows[0, empty] * own_entropy).sum(axis=0)
        value = float(probability @ entropy + self.constant @ pmf)
        terms = (slope, total, special_share, other_share, special_slope, other_slope)
        return value, gradient, terms

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
        value, gradient, terms = self._first_order(pmf)
        slope, total, special_share, other_share, special_slope, other_slope = terms
        counts = self.counts
        d_special = special_slope / total
        d_other = counts * other_slope / total
        curvature = counts / (total * math.log(2.0))  # k * c
        special_bend = np.where(
            special_share >= _SHARE_FLOOR, other_share / np.maximum(special_share, _SHARE_FLOOR), 0.0
        )
        other_bend = np.where(
            other_share >= _SHARE_FLOOR, special_share / np.maximum(other_share, _SHARE_FLOOR), 0.0
        )
        special_special = slope * (-2.0 * d_special - curvature * special_bend)
        special_other = slope * (-d_other - counts * d_special + curvature)
        other_other = slope * (-2.0 * counts * d_other - curvature * other_bend)
        second = np.array(
            (
                np.zeros(len(counts)), d_special, d_other,
                d_special, special_special, special_other,
                d_other, special_other, other_other,
            )
        ).T.reshape(-1, 3, 3)  # fmt: skip
        # rows is (3, classes, lengths); R.T @ M @ R summed over classes is
        # one product over the flattened (row kind, class) axis.
        weighted = np.einsum("cij,jcl->icl", second, self.rows)
        hessian = self.rows.reshape(-1, len(pmf)).T @ weighted.reshape(-1, len(pmf))
        return value, gradient, hessian


class _Class(NamedTuple):
    """One observation class after ORIGIN in an adversary's factor table."""

    event: EventClass
    #: ``True``: the posterior is uniform over ``count`` candidates whatever
    #: the pmf.  ``False``: it weighs one special candidate and ``count``
    #: others by the class's special and other weights.
    uniform: bool
    count: int


#: A posterior weight factor ``(mult, num, den)`` of one path length of
#: probability ``p``: it adds ``p * mult * num / den`` to the weight in
#: :meth:`AnonymityAnalyzer.analyze` and ``num / den * mult`` to the weight
#: row of :meth:`AnonymityAnalyzer.degree_gradient`.
_Factor = tuple[float, float, float]

#: One length's row of a factor table (see :meth:`AnonymityAnalyzer._row`).
_Row = tuple[Any, ...]


def _weights(
    probs: Iterable[float], specials: Iterable[_Factor | None], others: Iterable[_Factor | None]
) -> tuple[float, float]:
    """A split class's special and other weights: each ``sum of p * mult * num / den``.

    Each sum runs over the lengths that have a factor, in support order.
    """
    special_terms = []
    other_terms = []
    for p, special, other in zip(probs, specials, others):
        if special:
            mult, num, den = special
            special_terms.append(p * mult * num / den)
        if other:
            mult, num, den = other
            other_terms.append(p * mult * num / den)
    return sum(special_terms), sum(other_terms)


#: Factor tables kept per process, one per ``(N, adversary)``, least
#: recently used evicted first, with the engine cache's bound
#: (:data:`repro.batch.engine.ENGINE_CACHE_SIZE`).  A table holds at most
#: one row per path length, measured with tracemalloc: a full full-Bayes
#: table at ``N = 300`` takes 194 KiB, where unbounded full-Bayes tables
#: for every ``N`` up to 200 would take 13 MiB.
FACTOR_TABLE_CACHE_SIZE = 32

_FACTOR_TABLES: OrderedDict[tuple[int, AdversaryModel], dict[int, _Row]] = OrderedDict()
_FACTOR_TABLES_LOCK = threading.Lock()


def _factor_table(n_nodes: int, adversary: AdversaryModel) -> dict[int, _Row]:
    """This process's factor table of ``(n_nodes, adversary)``: path length -> row.

    Every analyzer of one system shares it, so the width scans and the
    optimiser of one request, and later requests, fill each row once.
    Rows are a pure function of the key, so two threads that fill one row
    at once store equal values.
    """
    key = (n_nodes, adversary)
    with _FACTOR_TABLES_LOCK:
        table = _FACTOR_TABLES.get(key)
        if table is None:
            table = _FACTOR_TABLES[key] = {}
        _FACTOR_TABLES.move_to_end(key)
        while len(_FACTOR_TABLES) > FACTOR_TABLE_CACHE_SIZE:
            _FACTOR_TABLES.popitem(last=False)
    return table


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
        n = model.n_nodes
        adversary = model.adversary
        #: The class whose probability :meth:`analyze` takes as what ORIGIN
        #: and the other classes leave of 1, subtracted in table order.
        #: The gradient keeps its linear row, which is equal on the simplex.
        self._remainder: int | None = None
        # The classes of each adversary's factor table (see _row), in the
        # order analyze reports them.
        if adversary is AdversaryModel.FULL_BAYES:
            self._classes = (
                _Class(EventClass.SILENT, False, n - 2),
                _Class(EventClass.LAST, False, n - 2),
                _Class(EventClass.PENULTIMATE, False, n - 3),
                _Class(EventClass.INTERIOR, False, n - 4),
            )
        elif adversary is AdversaryModel.POSITION_AWARE:
            # The position leaves LAST, PENULTIMATE and INTERIOR uniform over
            # the candidates it does not name.
            self._classes = (
                _Class(EventClass.SILENT, False, n - 2),
                _Class(EventClass.LAST, True, n - 2),
                _Class(EventClass.PENULTIMATE, True, n - 3),
                _Class(EventClass.INTERIOR, True, n - 4),
            )
        elif adversary is AdversaryModel.PREDECESSOR_ONLY:
            # A silent node tells this adversary only that it is not the
            # sender.  Every on-path report is INTERIOR, so LAST and
            # PENULTIMATE never occur.
            self._classes = (
                _Class(EventClass.SILENT, True, n - 1),
                _Class(EventClass.INTERIOR, False, n - 2),
                _Class(EventClass.LAST, True, 0),
                _Class(EventClass.PENULTIMATE, True, 0),
            )
            self._remainder = 0
        else:  # pragma: no cover - exhaustiveness guard
            raise ConfigurationError(f"unsupported adversary model {adversary!r}")
        #: Path length -> its factor row, filled on first use (see
        #: :meth:`_table`) and shared by every analyzer of this ``(N, adversary)``.
        self._rows = _factor_table(n, adversary)

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
        n = self._model.n_nodes
        pmf = distribution.as_dict()
        probs = pmf.values()
        origin, *columns = zip(*self._table(pmf))
        # Each sum() adds one column's terms in support order.  Keep sum():
        # CPython 3.12 compensates float sums and 3.10/3.11 do not, so a +=
        # loop would change the bits on one of them.  A zero coefficient
        # adds 0.0, which moves no sum.
        p_origin = 1.0 / n + (sum(map(mul, probs, origin)) / n if any(origin) else 0.0)
        probabilities = [
            sum(map(mul, probs, column)) / n if any(column) else 0.0 for column in columns[::3]
        ]
        if self._remainder is not None:
            index = self._remainder
            rest = probabilities[:index] + probabilities[index + 1 :]
            probabilities[index] = reduce(sub, rest, 1.0 - p_origin)
        events = [EventSummary(EventClass.ORIGIN, p_origin, 0.0, 1, 1.0)]
        for spec, probability, specials, others in zip(
            self._classes, probabilities, columns[1::3], columns[2::3]
        ):
            count = spec.count
            if not spec.uniform:
                price = self._class_entropy(*_weights(probs, specials, others), count)
            elif count > 0:
                price = math.log2(count), count, 1.0 / count
            else:
                price = 0.0, 0, 0.0
            events.append(EventSummary(spec.event, probability, *price))
        degree = sum(summary.contribution_bits for summary in events)
        return AnonymityResult(
            degree_bits=degree,
            model=self._model,
            distribution=distribution.name,
            events=tuple(events),
        )

    def degree_gradient(self, lengths: Sequence[int]) -> DegreeGradient:
        """``H*`` and its exact gradient over dense pmfs on ``lengths``.

        The returned callable maps a pmf vector (entry ``i`` is the
        probability of ``lengths[i]``) to ``(H* in bits, dH*/dpmf)``; its
        :meth:`~DegreeGradient.second_order` adds the Hessian, and its
        :meth:`~DegreeGradient.values` scores many pmfs at once.  Each
        value equals :meth:`analyze` of the same pmf up to rounding.
        """
        support = np.asarray(lengths, dtype=np.int64)
        max_len = self._model.max_simple_path_length
        if support.size == 0 or support.min() < 0 or support.max() > max_len:
            raise ConfigurationError(
                f"path lengths must lie within [0, {max_len}] for a system of "
                f"{self._model.n_nodes} nodes; got {list(lengths)}"
            )
        _, *columns = zip(*self._table(support.tolist()))
        probabilities = np.array(columns[::3]) / self._model.n_nodes
        # A factor (mult, num, den) is the row entry num / den * mult; a
        # uniform class has none, so its weight rows are zero.
        specials, others = (
            np.array(
                [[f[1] / f[2] * f[0] if f else 0.0 for f in factors] for factors in columns[kind::3]]
            )
            for kind in (1, 2)
        )
        # The uniform classes add their probability row times log2 k bits
        # to the constant row first.  Then a split class whose special or
        # other row is zero on the whole support, whose posterior the pmf
        # cannot move, is folded in: uniform over its k others (log2 k
        # bits) without a special candidate, a point (0 bits) without
        # others.  That leaves the value and gradient unchanged up to
        # rounding, and keeps the Hessian finite.  Counts are clipped at 0:
        # n - 3 and n - 4 are negative in the smallest systems, which have
        # no such candidates.
        counts = np.array([max(spec.count, 0) for spec in self._classes])
        split = np.array([not spec.uniform for spec in self._classes])
        moving = split & (counts > 0) & others.any(axis=1)
        kept = moving & specials.any(axis=1)
        constant = np.zeros(len(support))
        for probability, spec in zip(probabilities, self._classes):
            if spec.uniform and spec.count > 0:
                constant += probability * math.log2(spec.count)
        for index in np.flatnonzero(moving & ~kept):
            constant = constant + probabilities[index] * math.log2(counts[index])
        return DegreeGradient(
            rows=np.stack((probabilities[kept], specials[kept], others[kept])),
            counts=counts[kept].astype(float),
            constant=constant,
        )

    # ------------------------------------------------------------------ #
    # The factor table                                                    #
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

    def _table(self, lengths: Collection[int]) -> list[_Row]:
        """The factor rows of ``lengths`` in order, each built on first use."""
        rows = self._rows
        for length in lengths:
            if length not in rows:
                rows[length] = self._row(length)
        return [rows[length] for length in lengths]

    def _row(self, length: int) -> _Row:
        """The adversary's factor table at ``length``.

        The row is ORIGIN's probability coefficient ``c`` (a length of
        probability ``p`` adds ``p * c / N`` to a class's probability), then
        each class's ``c``, special factor and other factor, in the order of
        ``self._classes``.  A factor is ``None`` where the length adds
        nothing to the weight; a uniform class has none.  The row holds
        floats: every term would convert its ints to floats anyway, and
        float operands take the interpreter's fast path.
        """
        n = self._model.n_nodes
        adversary = self._model.adversary
        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            # SILENT, then INTERIOR: the node's predecessor is the sender
            # exactly when the node sits at position 1.  LAST and
            # PENULTIMATE never occur.
            return (
                0.0,
                n - 1.0 - length, None, None,
                float(length),
                (1.0, 1.0, n - 1.0) if length >= 1 else None,
                (1.0, length - 1.0, (n - 1.0) * (n - 2.0)) if length >= 2 else None,
                0.0, None, None,
                0.0, None, None,
            )  # fmt: skip
        den, silent, last, pen, interior = self._coefficients(length)
        # The special candidate of SILENT, LAST and PENULTIMATE is the
        # sender of one path of exactly 0, 1 or 2 intermediates.
        point = (1.0, 1.0, den)
        # SILENT: the receiver reports w and the compromised node saw
        # nothing; w itself is the sender of a direct path.
        silent_entry = (n - 1.0 - length, point if length == 0 else None, (1.0, silent, den))
        if adversary is AdversaryModel.POSITION_AWARE:
            # The node at position 1 sees the sender, and the adversary
            # knows the position: ORIGIN.  LAST, PENULTIMATE, INTERIOR.
            return (
                float(length >= 1),
                *silent_entry,
                float(length >= 2), None, None,
                float(length >= 3), None, None,
                max(length - 3.0, 0.0), None, None,
            )  # fmt: skip
        pen_other = (1.0, pen, den)
        return (
            0.0,
            *silent_entry,
            # LAST: the node reports (p, R); the receiver reports m.
            float(length >= 1), point if length == 1 else None, (1.0, last, den),
            # PENULTIMATE: the node's successor is the receiver's reported
            # predecessor.
            float(length >= 2), point if length == 2 else None, pen_other,
            # INTERIOR: the successor matches neither.  Its special weight
            # is PENULTIMATE's other weight.
            max(length - 2.0, 0.0), pen_other, (max(length - 3.0, 0.0), interior, den),
        )  # fmt: skip

    def _coefficients(self, length: int) -> tuple[float, float, float, float, float]:
        """The falling factorials of the class weights at ``length``.

        The row is ``(den, silent, last, penultimate, interior)``: ``(N-1)_l``
        and the numerators ``(N-3)_{l-1}``, ``(N-3)_{l-2}``, ``(N-4)_{l-3}``
        and ``(N-5)_{l-4}`` (``0.0`` where ``l`` is too short for the class).
        They are returned as the floats that ``prob * numerator / den``
        converts the exact integers to, so every weight term keeps its bits.
        Beyond ``N ~ 171`` that conversion overflows; such a row holds the
        exactly rounded ratios ``numerator / den`` over a unit denominator
        instead.
        """
        n = self._model.n_nodes
        den = falling_factorial(n - 1, length)
        silent = falling_factorial(n - 3, length - 1) if length >= 1 else 0
        last = falling_factorial(n - 3, length - 2) if length >= 2 else 0
        pen = falling_factorial(n - 4, length - 3) if length >= 3 else 0
        interior = falling_factorial(n - 5, length - 4) if length >= 4 else 0
        try:
            return float(den), float(silent), float(last), float(pen), float(interior)
        except OverflowError:
            return 1.0, silent / den, last / den, pen / den, interior / den

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
        # 0.0 - s is -s for every non-zero s, and +0.0 (not -0.0) for the
        # point posterior of an identified class.
        return 0.0 - kahan_sum(terms), len(weights), top


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
