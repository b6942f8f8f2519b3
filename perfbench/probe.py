"""The machine-speed probe that puts every timed metric on one scale.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to half on its own: other tenants' work comes in episodes of seconds to
minutes and slows every instruction mix, not just the wait for a core, so
CPU time drifts as much as wall time.  Medians within a run cannot remove an
episode that covers most of the run.

So every run times a small fixed computation, :func:`probe`, between
requests (and around each set-up launch), and every timed end-to-end metric
is reported at the reference speed: a request's wall time is multiplied by
``REFERENCE_PROBE_S`` divided by the mean of the probes just before and
just after it.  On an idle machine the factor is about 1.  The probe is the
benchmark's own code (a dict-heavy Python loop and a few small numpy
calls), so a change to the program moves the metrics and never the probe.
"""

from __future__ import annotations

import math
import time

#: The speed every timed metric is reported at: about the probe's time on a
#: quiet 2-core Intel Xeon guest (Python 3.11.7, numpy 2.4), where it read
#: 0.73-0.85 ms.  It only sets the scale; changing it rescales every
#: timed metric of every run alike.
REFERENCE_PROBE_S = 0.00088

_ARRAY = None


def probe() -> float:
    """Seconds one fixed small computation takes now (about a millisecond)."""
    global _ARRAY
    # Imported here, not at the top: the child imports this module before
    # it times ``import repro.cli``, whose time and module count must not
    # shrink by numpy's.
    import numpy as np

    if _ARRAY is None:
        _ARRAY = np.random.default_rng(0).random(20_000)
    started = time.perf_counter()
    # Integer keys and floats only: nothing the garbage collector tracks, so
    # the size of the program's own heap cannot slow the probe.
    table: dict[int, float] = {}
    total = 0.0
    for i in range(2000):
        key = (i % 97) * 16 + (i & 15)
        total += math.log1p(i) * 0.5
        table[key] = table.get(key, 0.0) + total
    ordered = np.sort(_ARRAY)
    np.cumsum(ordered * ordered)
    np.bincount((ordered * 64).astype(np.int64), minlength=64)
    return time.perf_counter() - started


def scales(probes: list[float]) -> list[float]:
    """Per gap between consecutive probes: the factor to the reference speed."""
    return [2 * REFERENCE_PROBE_S / (before + after) for before, after in zip(probes, probes[1:])]
