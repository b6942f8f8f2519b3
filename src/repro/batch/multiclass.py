"""Observation classes of the simple-path arrangement engine.

The ``C = 1`` batch engine rides on the paper's five observation classes.  For
``C != 1`` (or an honest receiver) no such five-way table exists, but the same
symmetry argument still applies one level up: under uniform sender choice and
uniform simple-path selection, relabelling honest nodes (and likewise
compromised nodes) maps observations to observations of equal posterior
entropy.  A trial's posterior therefore depends only on its *observation up
to relabelling*, and every trial whose sender is compromised is an outright
identification.  On a simple path every node is distinct, so that canonical
observation is fixed by a handful of integers per trial — the sorted 1-based
hop positions ``p_1 < ... < p_k`` of the on-path compromised nodes and the
path length ``l``:

* **full Bayes** sees the on-path count ``k``, each gap ``p_{j+1} - p_j - 1``
  clipped to ``{0, 1, 2+}`` (adjacent nodes, one shared honest neighbour, or
  two distinct ones) and the tail ``l - p_k`` clipped to ``{0, 1, 2+}`` (the
  last compromised node delivers, its successor is the receiver's reported
  predecessor, or it is not) — ``{0, 1+}`` under an honest receiver;
* **predecessor-only** sees only whether ``k >= 1``;
* **position-aware** sees the positions themselves plus the clipped tail.

This module turns that fact into a batch kernel:

:class:`ClassCoder`
    Encode one chunk's sorted slot columns into one integer *class code* per
    trial, one digit column at a time, and reduce the codes with one
    in-place sort.  Code spaces too wide for an int64 reduce over digit rows
    instead.  Predecessor-only classes need no code: two counts over
    per-trial flags tally them.

:class:`ClassScoreTable`
    Map each new code to its canonical observation key once — run
    :func:`~repro.adversary.observation.observation_from_path` on the
    shortest trial that realises the code, take
    :func:`~repro.adversary.inference.observation_class_key` of it and
    relabel the honest identities by first appearance — and price that
    observation once with the exact Bayesian engine
    (:class:`~repro.adversary.inference.BayesianPathInference`) and its
    closed-form fragment-arrangement counts.  Codes and keys match one to
    one, so the priced observation, and with it a class's price, is a pure
    function of its key, whichever trial or seed first reached it.

Keys live in a canonical label space: compromised identities are
``0 .. C-1`` in order of appearance, honest ones ``C, C+1, ...`` in order of
first appearance, so the key of a class does not depend on which nodes the
engine compromised.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.adversary.inference import BayesianPathInference, observation_class_key
from repro.adversary.observation import Observation, observation_from_path
from repro.batch.sampler import chunk_buffer
from repro.core.model import AdversaryModel, SystemModel
from repro.core.results import IDENTIFIED_THRESHOLD
from repro.distributions.base import PathLengthDistribution
from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import trace_span

__all__ = [
    "ORIGIN_KEY",
    "ClassCoder",
    "ClassScore",
    "ClassScoreTable",
    "canonical_key",
]

#: Canonical observation key of a compromised sender: it betrays itself.
ORIGIN_KEY: tuple = ("origin", 0)

#: Code spaces up to this many bins fit one int64 code per trial.
_MAX_PACKED_BINS = 1 << 62
#: Code spaces up to this many bins fit one int32 code per trial.
_MAX_INT32_BINS = 1 << 31


def canonical_key(key: tuple, compromised: frozenset[int]) -> tuple:
    """An observation key up to relabelling of the nodes.

    ``key`` is an :func:`~repro.adversary.inference.observation_class_key`.
    Compromised identities become ``0, 1, ...`` and honest ones ``C, C+1,
    ...``, each in order of first appearance: every report's predecessor,
    node and successor in turn, then the receiver's predecessor.  Positions
    are kept.  Two observations share a canonical key exactly when a
    relabelling that maps compromised nodes to compromised nodes carries one
    onto the other.
    """
    names: dict[int, int] = {}
    next_name = [0, len(compromised)]

    def name(node):
        if isinstance(node, str):
            return node
        if node not in names:
            honest = node not in compromised
            names[node] = next_name[honest]
            next_name[honest] += 1
        return names[node]

    kind = key[0]
    if kind == "origin":
        return ("origin", name(key[1]))
    if kind == "pred":
        return ("pred", name(key[1]), name(key[2]))
    if kind != "obs":
        return key
    reports = []
    for node, *position, predecessor, successor in key[1]:
        predecessor = name(predecessor)
        node = name(node)
        reports.append((node, *position, predecessor, name(successor)))
    receiver = None if key[2] is None else name(key[2])
    return ("obs", tuple(reports), receiver)


class ClassCoder:
    """Columnar class codes for one adversary's simple-path observation classes.

    A code is a mixed-radix number over per-trial digit columns (see the
    module docstring), built one column at a time:

    * full Bayes: one base-4 digit per slot column.  With ``c_j = min(slot_j,
      length)`` and ``c_C = length``, digit ``j`` is ``min(c_{j+1} - c_j,
      3)``: ``0`` past the last on-path slot, the clipped gap plus one while
      slot ``j + 1`` is on the path, and the clipped tail plus one at the
      last on-path slot, capped at ``2`` under an honest receiver.  The
      nonzero digits are a prefix, one per on-path compromised node;
    * predecessor-only: whether any compromised node is on the path;
    * position-aware: the on-path positions (``0`` for off-path slots) and
      the clipped tail.

    The last code is the origin class.  Codes and canonical keys match one to
    one, so :meth:`trial` rebuilds one shortest trial per key.

    Packed codes, the digit columns and the tally's run flags are this
    thread's chunk buffers (:func:`~repro.batch.sampler.chunk_buffer`), so
    the codes :meth:`encode` returns live until the next encode on the same
    thread.
    """

    def __init__(
        self,
        adversary: AdversaryModel,
        receiver_compromised: bool,
        n_columns: int,
        max_length: int,
    ) -> None:
        self._adversary = adversary
        #: Slot columns a chunk draws: one per compromised node.
        self.n_columns = n_columns
        tail_radix = 3 if receiver_compromised else 2
        self._tail_radix = tail_radix
        if adversary is AdversaryModel.PREDECESSOR_ONLY:
            radices: tuple[int, ...] = (2,)
        elif adversary is AdversaryModel.POSITION_AWARE:
            radices = (max_length + 1,) * n_columns + (tail_radix,)
        else:
            radices = (4,) * n_columns
        self._radices = radices
        space = math.prod(radices)
        #: Codes pack into one integer per trial; wider spaces use digit rows.
        self.packed = space + 1 <= _MAX_PACKED_BINS
        #: Packed codes are int32 where they fit, so :meth:`tally` sorts
        #: half the bytes (full Bayes up to ``C = 15``), and int64 above.
        self.code_dtype = np.int32 if space + 1 <= _MAX_INT32_BINS else np.int64
        #: The code of the origin class (a compromised sender).
        self.origin_code: int | tuple[int, ...] = (
            space if self.packed else (-1,) * len(radices)
        )

    def encode(
        self, origin: np.ndarray, lengths: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """One code per trial: a :attr:`code_dtype` vector, or an ``(n, digits)`` matrix.

        ``origin`` flags compromised senders, ``lengths`` are the path
        lengths and ``slots`` the ``(C, n)`` row-sorted slots of
        :func:`~repro.batch.sampler.decode_slots`.  A vector is this
        thread's ``codes`` chunk buffer: it lives until the next encode on
        the thread.
        """
        digits = self._digits(lengths, slots)
        if not self.packed:
            rows = np.empty((lengths.size, len(self._radices)), dtype=np.int64)
            for index, digit in enumerate(digits):
                rows[:, index] = digit
            rows[origin] = -1
            return rows
        codes = chunk_buffer("codes", lengths.size, self.code_dtype)
        codes.fill(0)
        for digit, radix in zip(digits, self._radices):
            codes *= radix
            codes += digit
        np.copyto(codes, self.origin_code, where=origin)
        return codes

    def _digits(self, lengths: np.ndarray, slots: np.ndarray) -> Iterator[np.ndarray]:
        """The digit columns of each trial's code, most significant first.

        Each column is yielded in a chunk buffer that the next one
        overwrites, so a caller must consume a column before asking for the
        next.
        """
        if self._adversary is AdversaryModel.PREDECESSOR_ONLY:
            # Sorted rows: some slot is on the path iff the smallest one is.
            yield (slots[:1] < lengths).any(axis=0)
            return
        n_trials = lengths.size
        flag = chunk_buffer("code_flag", n_trials, bool)
        if self._adversary is AdversaryModel.POSITION_AWARE:
            # Sorted rows put the on-path slots first, so the largest position
            # is the trial's last compromised hop, and 0 when none is on it.
            last = chunk_buffer("code_last", n_trials, lengths.dtype)
            last.fill(0)
            position = chunk_buffer("code_digit", n_trials, slots.dtype)
            for row in slots:
                np.add(row, 1, out=position)
                position *= np.less(row, lengths, out=flag)
                np.maximum(last, position, out=last)
                yield position
            tail = np.subtract(
                lengths, last, out=chunk_buffer("code_tail", n_trials, lengths.dtype)
            )
            np.minimum(tail, self._tail_radix - 1, out=tail)
            tail *= np.greater(last, 0, out=flag)
            yield tail
            return
        if not self.n_columns:
            return
        # ``here`` and ``after`` hold c_j and c_{j+1}, one column each; the
        # two buffers swap roles from one column to the next.
        dtype = np.result_type(slots.dtype, lengths.dtype)
        here = np.minimum(
            slots[0], lengths, out=chunk_buffer("code_here", n_trials, dtype)
        )
        spare = chunk_buffer("code_after", n_trials, dtype)
        digit = chunk_buffer("code_digit", n_trials, dtype)
        for j in range(self.n_columns):
            if j + 1 < self.n_columns:
                after = np.minimum(slots[j + 1], lengths, out=spare)
            else:
                after = lengths
            np.subtract(after, here, out=digit)
            np.minimum(digit, 3, out=digit)
            if self._tail_radix < 3:
                # Where c_{j+1} is the length, a nonzero digit is the tail,
                # and an honest receiver only tells a tail of 0 from 1+.
                at_end = chunk_buffer("code_at_end", n_trials, bool)
                np.equal(digit, 3, out=flag)
                flag &= np.equal(after, lengths, out=at_end)
                digit -= flag
            yield digit
            spare, here = here, after

    def tally(self, codes: np.ndarray) -> tuple[list, list[int]]:
        """The distinct codes of one chunk, ascending, with their counts.

        Packed codes are sorted in place and counted by runs, which yields
        exactly ``np.unique(codes, return_counts=True)`` without its sort
        copy; ``codes`` is left sorted.
        """
        if not self.packed:
            rows, counts = np.unique(codes, axis=0, return_counts=True)
            return [tuple(row) for row in rows.tolist()], counts.tolist()
        if not codes.size:
            return [], []
        codes.sort()
        # A run starts at the first code and wherever a code differs from
        # the one before it.
        runs = chunk_buffer("code_runs", codes.size, bool)
        runs[0] = True
        np.not_equal(codes[1:], codes[:-1], out=runs[1:])
        first = np.flatnonzero(runs)
        starts = first.tolist()
        counts = [end - start for start, end in zip(starts, starts[1:] + [codes.size])]
        return codes[first].tolist(), counts

    def tally_on_path(
        self, origin: np.ndarray, on_path: np.ndarray
    ) -> tuple[list, list[int]]:
        """Predecessor-only :meth:`tally` from per-trial flags, with no code written.

        ``on_path`` flags the trials with a compromised node on the path;
        the three classes then take two counts.
        """
        n_origin = int(np.count_nonzero(origin))
        n_seen = int(np.count_nonzero(on_path & ~origin))
        counts = (origin.size - n_origin - n_seen, n_seen, n_origin)
        present = [
            (code, count)
            for code, count in zip((0, 1, self.origin_code), counts)
            if count
        ]
        return [code for code, _ in present], [count for _, count in present]

    def trial(self, code: int | tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """``(length, positions)`` of the shortest honest-sender trial of ``code``."""
        if isinstance(code, tuple):
            digits = list(code)
        else:
            digits = []
            for radix in reversed(self._radices):
                code, digit = divmod(code, radix)
                digits.append(digit)
            digits.reverse()
        if self._adversary is AdversaryModel.PREDECESSOR_ONLY:
            return (1, (1,)) if digits[0] else (0, ())
        if self._adversary is AdversaryModel.FULL_BAYES:
            # Each on-path digit steps from one compromised position to the
            # next, and the last one to the hop after the path's end.
            *positions, end = itertools.accumulate(
                (digit for digit in digits if digit), initial=1
            )
            return end - 1, tuple(positions)
        positions = [position for position in digits[:-1] if position]
        if not positions:
            return 0, ()
        return positions[-1] + digits[-1], tuple(positions)


@dataclass(frozen=True)
class ClassScore:
    """Exact posterior statistics shared by every observation of one class."""

    entropy_bits: float
    #: True when the class pins the sender outright (top posterior ~ 1).
    identified: bool


class ClassScoreTable:
    """Canonical keys and exact scores of simple-path observation classes.

    One table serves one ``(model, distribution)`` pair; codes, keys and
    scores are memoised, so a class costs one inference no matter how many
    trials (or chunks) fall into it.  ``model.n_compromised`` fixes ``C``;
    which nodes are compromised does not matter, because keys live in the
    canonical label space of the module docstring.  With telemetry active,
    each priced class runs inside an ``engine.price`` span, counts into
    ``classes_priced_total`` and times into ``class_price_seconds``, all
    labelled with the ``arrangement`` engine that owns the table.
    """

    def __init__(
        self, model: SystemModel, distribution: PathLengthDistribution
    ) -> None:
        self._model = model
        self._compromised = model.compromised_nodes()
        self._inference = BayesianPathInference(
            model, distribution, self._compromised
        )
        # With C == N there is no honest sender, so no slot is ever drawn.
        n_compromised = model.n_compromised
        n_columns = n_compromised if n_compromised < model.n_nodes else 0
        self.coder = ClassCoder(
            model.adversary,
            model.receiver_compromised,
            n_columns,
            distribution.max_length,
        )
        self._keys: dict[object, tuple] = {self.coder.origin_code: ORIGIN_KEY}
        #: The observation each key is priced from (see :meth:`class_key`).
        self._observations: dict[tuple, Observation] = {}
        self._scores: dict[tuple, ClassScore] = {
            ORIGIN_KEY: ClassScore(entropy_bits=0.0, identified=True)
        }

    def key(self, code: int | tuple[int, ...]) -> tuple:
        """Canonical observation key of a class code, computed on first use."""
        key = self._keys.get(code)
        if key is None:
            key = self._keys[code] = self.class_key(*self.coder.trial(code))
        return key

    def class_key(self, length: int, positions: tuple[int, ...]) -> tuple:
        """Canonical key of the honest-sender trial with compromised ``positions``.

        The trial is built in the canonical label space — compromised
        identities ``0, 1, ...`` along the path, honest ones from ``C`` up —
        so :func:`canonical_key` only relabels its honest identities, by
        first appearance in the observation.  The first trial to reach a key
        fixes the observation :meth:`score` prices it from.
        """
        n_compromised = self._model.n_compromised
        compromised_pool = iter(range(n_compromised))
        honest_pool = iter(range(n_compromised, self._model.n_nodes))
        try:
            sender = next(honest_pool)
            path = [
                next(compromised_pool) if position in positions else next(honest_pool)
                for position in range(1, length + 1)
            ]
        except StopIteration:
            raise ConfigurationError(
                f"class (length={length}, positions={positions}) needs more "
                f"distinct nodes than the system provides (N={self._model.n_nodes}, "
                f"C={n_compromised})"
            ) from None
        observation = observation_from_path(
            sender,
            path,
            self._compromised,
            receiver_compromised=self._model.receiver_compromised,
        )
        key = canonical_key(
            observation_class_key(observation, self._model.adversary),
            self._compromised,
        )
        self._observations.setdefault(key, observation)
        return key

    def score(self, key: tuple) -> ClassScore:
        """Exact entropy/identification of one class key, computed on first use.

        ``key`` comes from :meth:`key` or :meth:`class_key`, which keep the
        observation it is priced from.
        """
        cached = self._scores.get(key)
        if cached is None:
            telemetry = get_registry()
            with trace_span("engine.price", telemetry, engine="arrangement"):
                started = telemetry.clock() if telemetry.enabled else 0.0
                posterior = self._inference.posterior(self._observations[key])
                cached = ClassScore(
                    entropy_bits=posterior.entropy_bits,
                    identified=posterior.max_probability >= IDENTIFIED_THRESHOLD,
                )
                if telemetry.enabled:
                    telemetry.counter(
                        "classes_priced_total", engine="arrangement"
                    ).inc()
                    telemetry.histogram(
                        "class_price_seconds", engine="arrangement"
                    ).observe(telemetry.clock() - started)
            self._scores[key] = cached
        return cached
