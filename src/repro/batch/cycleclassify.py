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
columnar at any ``C``.  It reads only the hops each trial walks, level by
level, so its cost follows the walked hops rather than the longest path.
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
    draw matrix).  Only live cells are read: row ``i``'s first
    ``lengths[i]`` hops.  Cells past a trial's length are never read, so they
    may hold anything.  Compromised visits are found level by level among
    the trials still walking; each trial's visit count and first visit come
    from those visit rows, and a single visit's successor and witness are
    read from its own row.  Every key equals :func:`cycle_trial_key` of the
    trials it counts.
    """
    n_trials = len(senders)
    width = hops.shape[1]
    # Node ids are non-negative, so clipping at one past the largest
    # compromised id maps every honest node onto a False entry.
    top = max(compromised, default=-1) + 1
    compromised_ids = np.zeros(top + 1, dtype=bool)
    compromised_ids[sorted(compromised)] = True

    def visited(nodes):
        return compromised_ids[np.minimum(nodes, top)]

    origin = visited(senders)
    hits = np.zeros(n_trials, dtype=np.int64)
    first = np.zeros(n_trials, dtype=np.int64)
    walking = np.flatnonzero(~origin)
    for level in range(width):
        walking = walking[lengths[walking] > level]
        visitors = walking[visited(hops[walking, level])]
        first[visitors[hits[visitors] == 0]] = level
        hits[visitors] += 1

    result: dict[tuple, int] = {}

    def add(count: int, key: tuple) -> None:
        if count:
            result[key] = int(count)

    on_path = np.flatnonzero(hits)
    n_origin = np.count_nonzero(origin)
    add(n_origin, ORIGIN_KEY)
    add(n_trials - n_origin - on_path.size, SILENT_KEY)

    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        add(on_path.size, PATH_KEY)
        return result

    if adversary is AdversaryModel.POSITION_AWARE:
        positions, counts = np.unique(first[on_path], return_counts=True)
        for position, count in zip(positions.tolist(), counts.tolist()):
            add(count, ("pos", position + 1))
        return result

    # FULL_BAYES: vectorized single-visit fast path.
    single = on_path[hits[on_path] == 1]
    visit = first[single]
    m_last = visit + 1 == lengths[single]
    add(np.count_nonzero(m_last), ("fb", 1, (), "recv"))
    rows = single[~m_last]
    if not receiver_compromised:
        add(rows.size, ("fb", 1, (), "open"))
    else:
        successors = hops[rows, visit[~m_last] + 1]
        witnesses = hops[rows, lengths[rows] - 1]
        n_bridged = np.count_nonzero(successors == witnesses)
        add(n_bridged, ("fb", 1, (), "eq"))
        add(rows.size - n_bridged, ("fb", 1, (), "ne"))

    # Rare multi-visit trials: the scalar reference rule, row by row.
    for index in on_path[hits[on_path] >= 2].tolist():
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
