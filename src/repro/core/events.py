"""Observation-event structure for the single-compromised-node analysis.

With exactly one compromised node ``m`` (plus the compromised receiver), every
possible adversary observation of a single message falls into one of five
symmetric classes.  Which class occurs, together with the path-length
distribution, fully determines the adversary's posterior entropy, so the
anonymity degree can be computed exactly as a weighted sum over the classes —
this is what :class:`repro.core.anonymity.AnonymityAnalyzer` does.

The five classes (``m`` is the compromised node, ``R`` the receiver):

``ORIGIN``
    The sender itself is the compromised node; the adversary observes the
    message being originated and identifies the sender outright (the paper's
    "local eavesdropper" case).

``SILENT``
    ``m`` is not on the rerouting path.  The adversary only sees the
    receiver's report of its predecessor ``w`` and the silence of ``m``.

``LAST``
    ``m`` is the last intermediate node: it reports ``(p, R)`` and the
    receiver reports ``m``.

``PENULTIMATE``
    ``m`` is the next-to-last intermediate node: its reported successor
    coincides with the receiver's reported predecessor.

``INTERIOR``
    ``m`` sits anywhere else on the path (positions ``1 .. l-2``): its
    reported successor matches neither the receiver nor the receiver's
    reported predecessor.  Crucially the adversary cannot tell *which* of
    those positions ``m`` occupies, which is the source of the paper's
    "short path effect": for short paths there are few interior positions and
    the predecessor is revealed almost surely, while for longer paths the
    observed predecessor hides among many possible positions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.model import AdversaryModel
from repro.exceptions import ConfigurationError

__all__ = ["EventClass", "EventSummary", "EVENT_ORDER", "event_code", "classify_trial"]


class EventClass(enum.Enum):
    """The five observation classes of the single-compromised-node analysis."""

    ORIGIN = "origin"
    SILENT = "silent"
    LAST = "last"
    PENULTIMATE = "penultimate"
    INTERIOR = "interior"


#: Canonical integer encoding of the classes, used by the columnar classifiers
#: in :mod:`repro.batch` (array cells hold ``EVENT_ORDER.index(cls)``).
EVENT_ORDER: tuple[EventClass, ...] = (
    EventClass.ORIGIN,
    EventClass.SILENT,
    EventClass.LAST,
    EventClass.PENULTIMATE,
    EventClass.INTERIOR,
)

_EVENT_CODES = {cls: code for code, cls in enumerate(EVENT_ORDER)}


def event_code(event_class: EventClass) -> int:
    """The canonical integer code of ``event_class`` (see :data:`EVENT_ORDER`)."""
    return _EVENT_CODES[event_class]


def classify_trial(
    sender_compromised: bool,
    length: int,
    position: int | None,
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
) -> EventClass:
    """Classify one Monte-Carlo trial into its symmetric observation class.

    A trial of the single-compromised-node model is fully characterised by
    three facts: whether the sender *is* the compromised node, the path length
    ``length``, and the 1-based hop ``position`` of the compromised node on the
    path (``None`` when it is not on the path).  By the symmetry argument of
    the paper, the adversary's posterior entropy depends only on the resulting
    class — this function is the scalar reference implementation that the
    five-class batch kernel (:class:`repro.batch.FiveClassEngine`) is tested
    against.
    """
    if sender_compromised:
        return EventClass.ORIGIN
    if position is None:
        return EventClass.SILENT
    if not 1 <= position <= length:
        raise ConfigurationError(
            f"hop position {position} outside the path of length {length}"
        )
    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        # The weak adversary does not distinguish where on the path its node
        # sat; the analyzer folds every on-path observation into one row.
        return EventClass.INTERIOR
    if adversary is AdversaryModel.POSITION_AWARE and position == 1:
        # Knowing the position, the first hop's predecessor is the sender.
        return EventClass.ORIGIN
    if position == length:
        return EventClass.LAST
    if position == length - 1:
        return EventClass.PENULTIMATE
    return EventClass.INTERIOR


@dataclass(frozen=True)
class EventSummary:
    """Probability and posterior entropy of one observation class.

    Attributes
    ----------
    event:
        Which observation class this row describes.
    probability:
        Probability that an observation of this class occurs (marginalised
        over senders, path lengths, and concrete node identities).
    entropy_bits:
        Shannon entropy (bits) of the adversary's posterior over senders given
        an observation of this class.  By symmetry the entropy is identical
        for every concrete observation within a class.
    posterior_support:
        Number of candidate senders with non-zero posterior probability.
    top_posterior:
        Largest single posterior probability assigned to any candidate; useful
        for min-entropy style metrics.
    """

    event: EventClass
    probability: float
    entropy_bits: float
    posterior_support: int
    top_posterior: float

    @property
    def contribution_bits(self) -> float:
        """Contribution ``probability * entropy`` of this class to the anonymity degree."""
        return self.probability * self.entropy_bits
