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
    Full-Bayes adversary: ``k`` compromised visits; each of the ``k - 1``
    gaps between consecutive visits is ``"adj"`` when they sit adjacent on
    the path (possible only for ``C > 1``), otherwise a boolean for whether
    the node forwarded to at the earlier visit coincides with the
    predecessor observed at the later one (``True``: the visits share their
    honest bridge; ``False``: the gap is open).  ``gaps`` is in canonical
    order, adjacent first, then bridged, then open: the honest segments
    enter the likelihood through a convolution, which commutes, so a
    class's entropy depends only on how many gaps of each kind it has, and
    each such class is keyed, and priced, once.  ``last`` is ``"recv"``
    when a compromised node delivered to the receiver itself,
    ``"eq"``/``"ne"`` for whether the final visit's successor coincides
    with the receiver's reported predecessor, or ``"open"`` under an honest
    receiver.  For ``C = 1`` adjacency cannot occur, so the keys coincide
    with the single-node form.

:func:`cycle_trial_key` is the scalar reference rule.  The array kernel
:func:`classify_cycle_arrays` reads a chunk in the cycle engine's packed
layout: trials sorted longest first, and their live hops (a trial's first
``length`` hops) stored level by level in one array, at the offsets of
:func:`level_offsets`.  It finds every compromised visit in one pass over
those cells, so its cost follows the walked hops rather than the longest
path.  It then reads each trial's visit count, first visit, gap counts and
tail relation from those visits with array operations, packs them into one
integer code per on-path trial, and builds keys only for the distinct
codes, so no trial takes a per-row Python path at any ``C``.
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
    "level_offsets",
]

#: Class key of a compromised sender (identified outright).
ORIGIN_KEY = ("origin",)
#: Class key of a path that never touches a compromised node.
SILENT_KEY = ("silent",)
#: Class key of every on-path trial under the predecessor-only adversary.
PATH_KEY = ("path",)
#: Gap marker for two compromised visits sitting adjacent on the path.
ADJACENT = "adj"
#: Canonical gap order of a full-Bayes key: adjacent, bridged, open.
_GAP_ORDER = {ADJACENT: 0, True: 1, False: 2}
#: Tail relations of a full-Bayes key, by the code the array kernel packs.
_TAILS = ("recv", "eq", "ne", "open")


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
    gaps = sorted(
        (
            ADJACENT
            if occurrences[j + 1] == occurrences[j] + 1
            else bool(hops[occurrences[j] + 1] == hops[occurrences[j + 1] - 1])
            for j in range(len(occurrences) - 1)
        ),
        key=_GAP_ORDER.__getitem__,
    )
    if occurrences[-1] == length - 1:
        last = "recv"
    elif not receiver_compromised:
        last = "open"
    else:
        last = "eq" if hops[occurrences[-1] + 1] == hops[length - 1] else "ne"
    return ("fb", len(occurrences), tuple(gaps), last)


def level_offsets(lengths: np.ndarray) -> np.ndarray:
    """Where each hop level starts in a packed hop store, then its total size.

    ``lengths`` are sorted longest first, so the trials still walking at
    level ``h`` (those longer than ``h``) are a prefix of the chunk: level
    ``h`` holds cells ``offsets[h]`` to ``offsets[h + 1]``, one per walking
    trial in chunk order, and ``offsets[-1]`` is ``sum(lengths)``.
    """
    width = int(lengths[0]) if len(lengths) else 0
    # lengths[::-1] ascends; matching dtypes keep searchsorted from copying.
    shorter = np.searchsorted(
        lengths[::-1], np.arange(width, dtype=lengths.dtype), "right"
    )
    offsets = np.zeros(width + 1, dtype=np.intp)
    np.cumsum(len(lengths) - shorter, out=offsets[1:])
    return offsets


def _members(nodes: np.ndarray, compromised: Sequence[int]) -> np.ndarray:
    """Flags of the cells of ``nodes`` that hold a compromised node."""
    found = np.zeros(nodes.shape, dtype=bool)
    if compromised:
        match = np.empty(nodes.shape, dtype=bool)
        for node in compromised:
            found |= np.equal(nodes, node, out=match)
    return found


def classify_cycle_arrays(
    senders,
    lengths,
    hops,
    compromised: frozenset[int],
    adversary: AdversaryModel = AdversaryModel.FULL_BAYES,
    receiver_compromised: bool = True,
) -> dict[tuple, int]:
    """Histogram one chunk into ``{key: count}``.

    The chunk is sorted longest first (``lengths`` never increase), and
    ``hops`` is its packed hop store: level by level, one cell per trial
    still walking, so trial ``i``'s hop at level ``h`` sits at
    ``offsets[h] + i`` with ``offsets`` from :func:`level_offsets`.  Only
    those live cells are read: cells from ``sum(lengths)`` on may hold
    anything.  Compromised visits are found in one pass over the live cells
    and grouped by trial; each on-path trial's visit count, first and last
    visit, gap counts and tail relation come from those visits and the live
    cells beside them.  Every key equals :func:`cycle_trial_key` of the
    trials it counts.
    """
    lengths = np.asarray(lengths)
    if np.any(lengths[1:] > lengths[:-1]):
        raise ValueError("a packed cycle chunk must be sorted longest first")
    n_trials = len(senders)
    offsets = level_offsets(lengths)
    width = offsets.size - 1
    members = sorted(compromised)

    def hop(rows, levels):
        return hops[offsets[levels] + rows]

    origin = _members(np.asarray(senders), members)
    # Every compromised visit of an honest sender's trial as (trial, level),
    # grouped by trial with its levels in walk order: the packed cells are
    # level-major, and the sort by trial is stable.
    cells = np.flatnonzero(_members(hops[: offsets[-1]], members))
    visit_levels = np.searchsorted(offsets, cells, "right") - 1
    visit_rows = cells - offsets[visit_levels]
    honest = ~origin[visit_rows]
    order = np.argsort(visit_rows[honest], kind="stable")
    visit_rows = visit_rows[honest][order]
    visit_levels = visit_levels[honest][order]
    starts = np.ones(visit_rows.size, dtype=bool)
    starts[1:] = visit_rows[1:] != visit_rows[:-1]
    first_visit = np.flatnonzero(starts)
    on_path = visit_rows[first_visit]

    result: dict[tuple, int] = {}

    def add(count: int, key: tuple) -> None:
        if count:
            result[key] = int(count)

    n_origin = np.count_nonzero(origin)
    add(n_origin, ORIGIN_KEY)
    add(n_trials - n_origin - on_path.size, SILENT_KEY)

    if adversary is AdversaryModel.PREDECESSOR_ONLY:
        add(on_path.size, PATH_KEY)
        return result

    if adversary is AdversaryModel.POSITION_AWARE:
        positions, counts = np.unique(visit_levels[first_visit], return_counts=True)
        for position, count in zip(positions.tolist(), counts.tolist()):
            add(count, ("pos", position + 1))
        return result

    # FULL_BAYES.  Gap j joins visits j and j + 1 of one trial: adjacent
    # when their levels are consecutive, else bridged when the earlier
    # visit's successor is the later one's predecessor.  Both cells lie
    # strictly between the two visits, so both are live.
    trial_of = np.cumsum(starts) - 1
    gap = np.flatnonzero(~starts[1:])
    adjacent = visit_levels[gap + 1] == visit_levels[gap] + 1
    spaced = gap[~adjacent]
    spaced_rows = visit_rows[spaced]
    bridged = hop(spaced_rows, visit_levels[spaced] + 1) == hop(
        spaced_rows, visit_levels[spaced + 1] - 1
    )
    n_adjacent = np.bincount(trial_of[gap[adjacent]], minlength=on_path.size)
    n_bridged = np.bincount(trial_of[spaced[bridged]], minlength=on_path.size)
    visits = np.diff(np.append(first_visit, visit_rows.size))

    # The tail: the last visit delivered to the receiver itself, or its
    # successor is (or is not) the receiver's witness, the trial's last hop.
    last_visit = visit_levels[first_visit + visits - 1]
    path_lengths = lengths[on_path]
    tails = np.zeros(on_path.size, dtype=np.int64)
    relayed = np.flatnonzero(last_visit + 1 != path_lengths)
    if not receiver_compromised:
        tails[relayed] = _TAILS.index("open")
    else:
        relay_rows = on_path[relayed]
        witnessed = hop(relay_rows, last_visit[relayed] + 1) == hop(
            relay_rows, path_lengths[relayed] - 1
        )
        tails[relayed] = np.where(
            witnessed, _TAILS.index("eq"), _TAILS.index("ne")
        )

    # One code per on-path trial; keys are built for distinct codes only.
    # Visit and gap counts are at most the width, so base width + 1 packs.
    base = width + 1
    codes = ((visits * base + n_adjacent) * base + n_bridged) * len(_TAILS) + tails
    distinct, counts = np.unique(codes, return_counts=True)
    for code, count in zip(distinct.tolist(), counts.tolist()):
        code, tail = divmod(code, len(_TAILS))
        code, n_bridge = divmod(code, base)
        k, n_adj = divmod(code, base)
        n_open = k - 1 - n_adj - n_bridge
        gaps = (ADJACENT,) * n_adj + (True,) * n_bridge + (False,) * n_open
        add(count, ("fb", k, gaps, _TAILS[tail]))
    return result
