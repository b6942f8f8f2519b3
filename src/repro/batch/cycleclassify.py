"""Classification of cycle-path trials into observation classes.

With a compromised set ``M`` on cycle-allowed paths, the adversary's
posterior entropy for a trial depends only on a small *class key* — never on
which concrete honest nodes played which role, nor on which compromised
identity sat at which visit (see :mod:`repro.adversary.inference` for the
proof sketch: only the first observed predecessor is special, and
honest-segment walk counts depend only on whether segment endpoints
coincide).  The keys, per adversary:

``("origin",)``
    The sender is compromised: identified outright.
``("silent",)``
    No compromised node is on the path.
``("path",)``
    Predecessor-only adversary, some compromised node on the path: one class
    — the weak adversary cannot tell where its node sat.
``("pos", q)``
    Position-aware adversary: the first compromised visit sits at hop ``q``
    (everything after the first visit factors out of the posterior).
``("fb", k, gaps, last)``
    Full-Bayes adversary: ``k`` compromised visits; ``gaps[j]`` records the
    relation between visits ``j`` and ``j + 1`` — ``"adj"`` when they sit
    adjacent on the path (possible only for ``C > 1``), otherwise a boolean
    for whether the node forwarded to at visit ``j`` coincides with the
    predecessor observed at visit ``j + 1`` (the visits share their honest
    bridge); ``last`` is ``"recv"`` when a compromised node delivered to the
    receiver itself, ``"eq"``/``"ne"`` for whether the final visit's
    successor coincides with the receiver's reported predecessor, or
    ``"open"`` under an honest receiver.  For ``C = 1`` adjacency cannot
    occur, so the keys coincide bit for bit with the single-node form.

:func:`cycle_trial_key` is the scalar reference rule.  The array kernel
:func:`classify_cycle_arrays` vectorises the overwhelmingly common cases
(origin, silent, at most one compromised visit) and falls back to the scalar
rule only for the rare multi-visit trials, so classification cost stays
columnar at any ``C``.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

import numpy as np

from repro.core.model import AdversaryModel

__all__ = [
    "ORIGIN_KEY",
    "SILENT_KEY",
    "PATH_KEY",
    "ADJACENT",
    "cycle_trial_key",
    "classify_cycle_arrays",
]

#: Class key of a compromised sender (identified outright).
ORIGIN_KEY = ("origin",)
#: Class key of a path that never touches a compromised node.
SILENT_KEY = ("silent",)
#: Class key of every on-path trial under the predecessor-only adversary.
PATH_KEY = ("path",)
#: Gap marker for two compromised visits sitting adjacent on the path.
ADJACENT = "adj"


def _membership(compromised: int | Collection[int]) -> frozenset[int]:
    """Normalise the compromised argument: a single node id or a set of them."""
    if isinstance(compromised, Collection):
        return frozenset(int(node) for node in compromised)
    return frozenset((int(compromised),))


def cycle_trial_key(
    sender: int,
    hops: Sequence[int],
    length: int,
    compromised: int | Collection[int],
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
    receiver_compromised: bool = True,
) -> tuple:
    """Classify one cycle-path trial (scalar reference implementation).

    ``hops`` must expose at least the first ``length`` hop identities of the
    trial; extra cells (the sampler's chain continuation) are ignored.
    ``compromised`` is a single node identity or any collection of them.
    """
    members = _membership(compromised)
    if sender in members:
        return ORIGIN_KEY
    occurrences = [i for i in range(length) if hops[i] in members]
    if not occurrences:
        return SILENT_KEY
    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        return PATH_KEY
    if adversary is AdversaryModel.POSITION_AWARE:
        return ("pos", occurrences[0] + 1)
    gaps = tuple(
        ADJACENT
        if occurrences[j + 1] == occurrences[j] + 1
        else bool(hops[occurrences[j] + 1] == hops[occurrences[j + 1] - 1])
        for j in range(len(occurrences) - 1)
    )
    if occurrences[-1] == length - 1:
        last = "recv"
    elif not receiver_compromised:
        last = "open"
    else:
        last = "eq" if hops[occurrences[-1] + 1] == hops[length - 1] else "ne"
    return ("fb", len(occurrences), gaps, last)


def classify_cycle_arrays(
    senders,
    lengths,
    hops,
    compromised: frozenset[int],
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
    receiver_compromised: bool = True,
) -> dict[tuple, int]:
    """Histogram one chunk into ``{key: count}``.

    ``hops`` is the ``n_trials x width`` hop matrix (any layout numpy can
    index — the cycle engine passes a transposed view of its level-major
    draw matrix).  Every key equals :func:`cycle_trial_key` of the trials it
    counts.
    """
    n_trials = len(senders)
    width = hops.shape[1]
    result: dict[tuple, int] = {}

    def add(mask, key) -> None:
        count = int(mask.sum())
        if count:
            result[key] = count

    if len(compromised) == 1:
        (compromised_node,) = compromised
        occurrences = hops == compromised_node
        origin = senders == compromised_node
    else:
        members = np.fromiter(sorted(compromised), dtype=np.int64)
        occurrences = np.isin(hops, members)
        origin = np.isin(senders, members)
    valid = np.arange(width) < lengths[:, None]
    occurrences &= valid
    hits = occurrences.sum(axis=1)
    add(origin, ORIGIN_KEY)
    add(~origin & (hits == 0), SILENT_KEY)
    on_path = ~origin & (hits > 0)
    if width == 0:
        return result  # every path is direct: only origin/silent occur

    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        add(on_path, PATH_KEY)
        return result

    first = occurrences.argmax(axis=1)  # 0-based first visit, on-path only
    if adversary is AdversaryModel.POSITION_AWARE:
        for position in np.unique(first[on_path]):
            add(on_path & (first == position), ("pos", int(position) + 1))
        return result

    # FULL_BAYES: vectorized single-visit fast path.
    single = on_path & (hits == 1)
    m_last = single & (first + 1 == lengths)
    add(m_last, ("fb", 1, (), "recv"))
    not_last = single & ~m_last
    if not receiver_compromised:
        add(not_last, ("fb", 1, (), "open"))
    else:
        rows = np.nonzero(not_last)[0]
        if rows.size:
            successors = hops[rows, first[rows] + 1]
            witnesses = hops[rows, lengths[rows] - 1]
            bridged = successors == witnesses
            eq_mask = np.zeros(n_trials, dtype=bool)
            eq_mask[rows[bridged]] = True
            ne_mask = np.zeros(n_trials, dtype=bool)
            ne_mask[rows[~bridged]] = True
            add(eq_mask, ("fb", 1, (), "eq"))
            add(ne_mask, ("fb", 1, (), "ne"))

    # Rare multi-visit trials: the scalar reference rule, row by row.
    for index in np.nonzero(on_path & (hits >= 2))[0]:
        index = int(index)
        length = int(lengths[index])
        key = cycle_trial_key(
            int(senders[index]),
            hops[index, :length],
            length,
            compromised,
            adversary,
            receiver_compromised,
        )
        result[key] = result.get(key, 0) + 1
    return result
