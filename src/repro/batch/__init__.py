"""Vectorized batch simulation of anonymity experiments.

This subpackage is the fast path of the reproduction: instead of pushing one
message at a time through the discrete-event transport, it draws thousands
of rerouting-path trials at once as numpy arrays, classifies every trial into
a symmetric observation class with array operations, and scores each class
with an *exact* per-class posterior entropy — one kernel per engine.  Two
class systems cover the whole simple-path domain:

* the paper's **five classes** for one compromised node with a compromised
  receiver (scored by the closed form);
* **canonical observation classes** — a trial's observation up to
  relabelling, coded from its sorted compromised positions — for any number
  of compromised nodes and honest receivers, scored through the exact
  fragment-arrangement counts of :mod:`repro.combinatorics`.

Cycle-allowed paths and non-clique topologies have engines of their own.

The resulting estimator is statistically identical to the hop-by-hop
:class:`~repro.simulation.experiment.StrategyMonteCarlo` at roughly two to
three orders of magnitude more trials per second (see
``benchmarks/bench_batch.py``), and the ``sharded`` backend multiplies that
across worker processes (``benchmarks/bench_sharded.py``).

Layout
------
:mod:`repro.batch.engine`
    The :class:`TrialEngine` protocol (one ``accumulate_chunk`` kernel), the
    mergeable :class:`BatchAccumulator`, :func:`select_engine` (one branch
    per engine domain), the process-wide engine cache, and the two
    simple-path engines (:class:`FiveClassEngine`,
    :class:`ArrangementEngine`).
:mod:`repro.batch.sampler`
    The bulk draws the clique engines share: the inverse-CDF length decoder
    (:class:`InverseCdfDecoder`) and the compromised-slot decode.
:mod:`repro.batch.multiclass`
    Columnar observation-class codes, their canonical keys, and the exact
    score table.
:mod:`repro.batch.cycleclassify`
    Cycle observation-class keys (:func:`cycle_trial_key`, the scalar
    reference rule, and its array kernel).
:mod:`repro.batch.cycleengine`
    The cycle-allowed engine (:class:`CycleBatchEngine`, any ``C``) and its
    lazily priced :class:`CycleScoreTable` (Crowds-style protocols).
:mod:`repro.batch.topoengine`
    The graph-general :class:`TopologyEngine` for non-clique topologies.
:mod:`repro.batch.estimator`
    The drop-in estimator (:class:`BatchMonteCarlo`), a thin dispatcher over
    the engine cache.
:mod:`repro.batch.sharded`
    The multiprocess ``sharded`` backend (:class:`ShardedBackend`).
:mod:`repro.batch.backends`
    The four estimator backends (``exact | event | batch | sharded``) and
    :func:`get_backend`, which sweeps, the experiment registry, and the
    ``repro-anon batch`` CLI select them through.
"""

from repro.batch.backends import (
    BatchBackend,
    EstimatorBackend,
    EventBackend,
    ExactBackend,
    available_backends,
    estimate_anonymity,
    get_backend,
)
from repro.batch.cycleclassify import cycle_trial_key
from repro.batch.cycleengine import CycleBatchEngine, CycleScoreTable
from repro.batch.engine import (
    ArrangementEngine,
    FiveClassEngine,
    TrialEngine,
    select_engine,
)
from repro.batch.estimator import BatchAccumulator, BatchMonteCarlo
from repro.batch.multiclass import ClassScoreTable
from repro.batch.sampler import InverseCdfDecoder
from repro.batch.sharded import ShardedBackend, split_trials
from repro.batch.topoengine import TopologyEngine

__all__ = [
    "cycle_trial_key",
    "ClassScoreTable",
    "CycleScoreTable",
    "TrialEngine",
    "FiveClassEngine",
    "ArrangementEngine",
    "InverseCdfDecoder",
    "CycleBatchEngine",
    "TopologyEngine",
    "select_engine",
    "BatchMonteCarlo",
    "BatchAccumulator",
    "EstimatorBackend",
    "ExactBackend",
    "EventBackend",
    "BatchBackend",
    "ShardedBackend",
    "split_trials",
    "available_backends",
    "get_backend",
    "estimate_anonymity",
]
