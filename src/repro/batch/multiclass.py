"""Symmetric observation classes for the multi-compromised-node batch domain.

The ``C = 1`` batch engine rides on the paper's five observation classes.  For
``C > 1`` (or an honest receiver) no such five-way table exists, but the same
symmetry argument still applies one level up: under uniform sender choice and
uniform simple-path selection, relabelling honest nodes (and likewise
compromised nodes) maps observations to observations of equal posterior
entropy.  Two trials with an honest sender therefore share their entropy
whenever they share

* the path length ``l``, and
* the *set* of 1-based hop positions occupied by compromised nodes,

and every trial whose sender is compromised is an outright identification.
This module turns that fact into a batch kernel:

:func:`count_key_arrays`
    Reduce one chunk's sender, length, and position-mask arrays to a
    histogram of ``(length, position-mask)`` keys (compromised senders fold
    into the single :data:`ORIGIN_KEY`).

:class:`ClassScoreTable`
    Lazily score each distinct key exactly once: build one *canonical
    representative* observation for the class and hand it to the exact
    Bayesian engine (:class:`~repro.adversary.inference.BayesianPathInference`),
    which prices it with the closed-form fragment-arrangement counts of
    :mod:`repro.combinatorics.arrangements`.  Estimators then gather per-trial
    entropies from the table, so — exactly as in the ``C = 1`` engine — only
    the *observation* is sampled, never the posterior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.core.model import SystemModel
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.simulation.results import IDENTIFIED_THRESHOLD
from repro.telemetry.metrics import get_registry

__all__ = [
    "ORIGIN_KEY",
    "ClassScore",
    "ClassScoreTable",
    "count_key_arrays",
]

#: Histogram key of the "sender is compromised" class.  A real length/mask key
#: always has ``length >= 0``, so ``-1`` can never collide with one.
ORIGIN_KEY: tuple[int, int] = (-1, 0)

#: Packing layout of the histogram: 7 low bits hold ``length + 1``
#: (0..64, with 0 for the ORIGIN sentinel's ``-1``), the rest hold the mask.
#: Usable whenever ``mask < 2**56``, i.e. the path fits 56 hops.
_PACK_SHIFT = 7
_PACK_LENGTH_MASK = (1 << _PACK_SHIFT) - 1
_PACK_MAX_LENGTH = 56


def count_key_arrays(
    senders,
    lengths,
    masks,
    compromised: frozenset[int],
) -> dict[tuple[int, int], int]:
    """Histogram of ``(length, mask)`` class keys over one chunk's arrays.

    Trials whose sender is in ``compromised`` all land on :data:`ORIGIN_KEY`;
    for the rest the key is the trial's ``(length, position-mask)`` pair.
    """
    origin = (
        np.isin(senders, np.fromiter(compromised, dtype=np.int64))
        if compromised
        else np.zeros(len(senders), dtype=bool)
    )
    keyed_lengths = np.where(origin, ORIGIN_KEY[0], lengths)
    keyed_masks = np.where(origin, ORIGIN_KEY[1], masks)
    max_length = int(lengths.max(initial=0))
    if max_length <= _PACK_MAX_LENGTH:
        # Hot path: pack (length, mask) into one int64 so the histogram is
        # a single 1-D ``np.unique`` instead of a column-wise one.  The
        # shift keeps the ORIGIN sentinel (-1, 0) distinct and ordered.
        packed = (keyed_masks << _PACK_SHIFT) | (keyed_lengths + 1)
        values, counts = np.unique(packed, return_counts=True)
        return {
            (int(value & _PACK_LENGTH_MASK) - 1, int(value >> _PACK_SHIFT)): int(
                count
            )
            for value, count in zip(values, counts)
        }
    pairs, counts = np.unique(
        np.stack((keyed_lengths, keyed_masks)), axis=1, return_counts=True
    )
    return {
        (int(length), int(mask)): int(count)
        for length, mask, count in zip(pairs[0], pairs[1], counts)
    }


@dataclass(frozen=True)
class ClassScore:
    """Exact posterior statistics shared by every observation of one class."""

    entropy_bits: float
    #: True when the class pins the sender outright (top posterior ~ 1).
    identified: bool


@dataclass
class ClassScoreTable:
    """Lazy exact scoring of ``(length, mask)`` observation classes.

    One table serves one ``(model, distribution, compromised)`` triple; scores
    are cached, so a class costs one canonical-observation inference no matter
    how many trials (or batches) fall into it.  With telemetry active, each
    miss counts into ``classes_priced_total`` and times into
    ``class_price_seconds``, labelled with the ``arrangement`` engine that
    owns the table.
    """

    model: SystemModel
    distribution: PathLengthDistribution
    compromised: frozenset[int]

    _inference: BayesianPathInference = field(init=False, repr=False)
    _scores: dict[tuple[int, int], ClassScore] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._inference = BayesianPathInference(
            self.model, self.distribution, self.compromised
        )
        self._scores[ORIGIN_KEY] = ClassScore(entropy_bits=0.0, identified=True)

    def score(self, key: tuple[int, int]) -> ClassScore:
        """Exact entropy/identification of one class, computed on first use."""
        cached = self._scores.get(key)
        if cached is None:
            telemetry = get_registry()
            started = telemetry.clock() if telemetry.enabled else 0.0
            cached = self._score_class(*key)
            self._scores[key] = cached
            if telemetry.enabled:
                telemetry.counter("classes_priced_total", engine="arrangement").inc()
                telemetry.histogram(
                    "class_price_seconds", engine="arrangement"
                ).observe(telemetry.clock() - started)
        return cached

    # ------------------------------------------------------------------ #
    # Canonical representatives                                           #
    # ------------------------------------------------------------------ #

    def _score_class(self, length: int, mask: int) -> ClassScore:
        posterior = self._inference.posterior(
            observation_from_path(
                *self._canonical_trial(length, mask),
                self.compromised,
                receiver_compromised=self.model.receiver_compromised,
            )
        )
        return ClassScore(
            entropy_bits=posterior.entropy_bits,
            identified=posterior.max_probability >= IDENTIFIED_THRESHOLD,
        )

    def _canonical_trial(self, length: int, mask: int) -> tuple[int, list[int]]:
        """One concrete ``(sender, path)`` realising the class.

        Compromised positions are filled with (sorted) compromised identities
        and honest positions with distinct honest identities; by the
        relabelling symmetry any such representative prices the whole class.
        """
        compromised_pool = iter(sorted(self.compromised))
        honest_pool = iter(
            node
            for node in range(self.model.n_nodes)
            if node not in self.compromised
        )
        sender = next(honest_pool)
        try:
            path = [
                next(compromised_pool) if mask >> bit & 1 else next(honest_pool)
                for bit in range(length)
            ]
        except StopIteration:
            raise ConfigurationError(
                f"class (length={length}, mask={mask:#x}) needs more distinct "
                f"nodes than the system provides (N={self.model.n_nodes}, "
                f"C={len(self.compromised)})"
            ) from None
        return sender, path
