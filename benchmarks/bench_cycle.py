"""Throughput benchmark: the vectorized cycle engine vs the hop-by-hop engine.

This is the perf record for the cycle-allowed fast path of
:mod:`repro.batch.cycleengine`: the Crowds reference configuration — ``N=20``
nodes, the original deployment's coin-flip strategy (``p_forward=3/4``,
cycles allowed), one compromised node, the full-Bayes adversary — estimated

* hop by hop through :class:`~repro.simulation.experiment.StrategyMonteCarlo`
  (one concrete path, one observation, one exact cycle posterior per trial),
  and
* through the columnar :class:`~repro.batch.estimator.BatchMonteCarlo` cycle
  engine (blockwise Markov transition sampling, vectorized classification,
  one exact posterior per *class*).

The asserted floor — **batch >= 25x the event engine's trials/sec** — is the
acceptance criterion of the engine; two to three orders of magnitude is
typical because the event engine prices every trial individually while the
cycle engine prices each of the few dozen observation classes once.

Both engines are statistically identical (their per-trial entropies follow
the same law), which the parity test checks before anything is timed.

The measurement writes a machine-readable ``BENCH_cycle.json`` record (see
:mod:`perf_record`); the ``C = 2`` case of the same engine merges
its numbers into the same record under ``c2_``-prefixed keys, with its own
floor against the hop-by-hop path.  A third case records the engine alone at
paper scale (``N = 100``) under ``n100_``-prefixed keys, with no floor;
``scripts/compare_bench.py --trend`` watches them.  Under ``--smoke`` the
budgets shrink so the whole run takes seconds; the records are written but
the floors are not asserted.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_cycle.py -q -s
"""

from __future__ import annotations

import time

from perf_record import update_record, write_record

from repro.batch import BatchMonteCarlo
from repro.core.model import PathModel, SystemModel
from repro.distributions import GeometricLength
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.experiment import StrategyMonteCarlo

#: The workload: the Crowds reference configuration on cycle-allowed paths.
N_NODES = 20
P_FORWARD = 0.75
EVENT_TRIALS = 2_000
BATCH_TRIALS = 2_000_000
SMOKE_EVENT_TRIALS = 300
SMOKE_BATCH_TRIALS = 100_000
#: Acceptance floor for the cycle engine over hop-by-hop estimation.
MIN_SPEEDUP = 25.0
#: Acceptance floor for the cycle engine at C = 2 over hop-by-hop: the same
#: 25x as at C = 1 and as ``benchmarks/bench_floors.json``'s ``c2_speedup``
#: rule.  Multi-visit trials, more common at C = 2, are classified with the
#: same array operations as single visits, and full runs clear the floor by
#: an order of magnitude.
MIN_MULTI_SPEEDUP = 25.0
MULTI_BATCH_TRIALS = 1_000_000
SMOKE_MULTI_BATCH_TRIALS = 50_000
#: Paper-scale Crowds: N = 100, C = 1, at the deployment's ``p_forward``
#: and at 0.97, whose walks average about 33 hops.  Recorded only; no floor.
#: The smoke budgets keep the whole case near a second.
SCALE_NODES = 100
SCALE_TRIALS = {0.75: 2_000_000, 0.97: 524_288}
SMOKE_SCALE_TRIALS = {0.75: 200_000, 0.97: 65_536}


def _workload(n_compromised: int = 1):
    model = SystemModel(n_nodes=N_NODES, n_compromised=n_compromised)
    strategy = PathSelectionStrategy(
        "Crowds",
        GeometricLength(p_forward=P_FORWARD, minimum=1),
        path_model=PathModel.CYCLE_ALLOWED,
    )
    return model, strategy


def test_cycle_batch_matches_event_statistics():
    """Sanity before speed: the two cycle engines agree statistically."""
    model, strategy = _workload()
    event = StrategyMonteCarlo(model, strategy).run(1_500, rng=0)
    batch = BatchMonteCarlo(model, strategy).run(150_000, rng=0)
    gap = abs(event.degree_bits - batch.degree_bits)
    tolerance = 3.0 * (event.estimate.std_error + batch.estimate.std_error)
    assert gap <= tolerance, (
        f"event {event.estimate} vs batch {batch.estimate} differ by {gap:.5f}"
    )


def test_cycle_speedup_floor(smoke):
    """The acceptance criterion: the cycle engine >= 25x hop-by-hop trials/sec."""
    event_trials = SMOKE_EVENT_TRIALS if smoke else EVENT_TRIALS
    batch_trials = SMOKE_BATCH_TRIALS if smoke else BATCH_TRIALS
    model, strategy = _workload()

    event_engine = StrategyMonteCarlo(model, strategy)
    started = time.perf_counter()
    event_report = event_engine.run(event_trials, rng=0)
    event_seconds = time.perf_counter() - started

    batch_engine = BatchMonteCarlo(model, strategy)
    started = time.perf_counter()
    batch_report = batch_engine.run(batch_trials, rng=0)
    batch_seconds = time.perf_counter() - started

    event_tps = event_trials / event_seconds
    batch_tps = batch_trials / batch_seconds
    speedup = batch_tps / event_tps
    print()
    print(f"event (hop-by-hop) : {event_seconds:8.2f}s ({event_tps:,.0f} trials/sec)")
    print(f"batch (cycle eng.) : {batch_seconds:8.2f}s ({batch_tps:,.0f} trials/sec)")
    print(f"speedup            : {speedup:8.1f}x")
    print(f"event estimate {event_report.estimate}")
    print(f"batch estimate {batch_report.estimate}")

    write_record(
        "cycle",
        smoke=smoke,
        config={
            "n_nodes": N_NODES,
            "n_compromised": 1,
            "p_forward": P_FORWARD,
            "path_model": "cycle_allowed",
            "event_trials": event_trials,
            "batch_trials": batch_trials,
            "floor_speedup": MIN_SPEEDUP,
        },
        event_seconds=round(event_seconds, 3),
        batch_seconds=round(batch_seconds, 3),
        event_trials_per_sec=round(event_tps, 1),
        batch_trials_per_sec=round(batch_tps, 1),
        speedup=round(speedup, 1),
    )

    gap = abs(event_report.degree_bits - batch_report.degree_bits)
    tolerance = 3.0 * (
        event_report.estimate.std_error + batch_report.estimate.std_error
    )
    assert gap <= tolerance

    if smoke:
        return  # tiny budgets; record only
    assert speedup >= MIN_SPEEDUP, (
        f"cycle batch engine reached only {speedup:.1f}x over the hop-by-hop "
        f"event engine; the floor is {MIN_SPEEDUP}x"
    )


def test_cycle_multi_speedup_floor(smoke):
    """The C = 2 case: the cycle engine vs hop-by-hop, its own floor."""
    event_trials = SMOKE_EVENT_TRIALS if smoke else EVENT_TRIALS
    batch_trials = SMOKE_MULTI_BATCH_TRIALS if smoke else MULTI_BATCH_TRIALS
    model, strategy = _workload(n_compromised=2)

    event_engine = StrategyMonteCarlo(model, strategy)
    started = time.perf_counter()
    event_report = event_engine.run(event_trials, rng=0)
    event_seconds = time.perf_counter() - started

    batch_engine = BatchMonteCarlo(model, strategy)
    assert batch_engine.engine.name == "cycle"
    started = time.perf_counter()
    batch_report = batch_engine.run(batch_trials, rng=0)
    batch_seconds = time.perf_counter() - started

    event_tps = event_trials / event_seconds
    batch_tps = batch_trials / batch_seconds
    speedup = batch_tps / event_tps
    print()
    print(f"event C=2 (hop-by-hop)  : {event_seconds:8.2f}s ({event_tps:,.0f} trials/sec)")
    print(f"batch C=2 (cycle)       : {batch_seconds:8.2f}s ({batch_tps:,.0f} trials/sec)")
    print(f"speedup                 : {speedup:8.1f}x")
    print(f"event estimate {event_report.estimate}")
    print(f"batch estimate {batch_report.estimate}")

    update_record(
        "cycle",
        smoke=smoke,
        config={
            "c2_n_compromised": 2,
            "c2_event_trials": event_trials,
            "c2_batch_trials": batch_trials,
            "c2_floor_speedup": MIN_MULTI_SPEEDUP,
        },
        c2_event_seconds=round(event_seconds, 3),
        c2_batch_seconds=round(batch_seconds, 3),
        c2_event_trials_per_sec=round(event_tps, 1),
        c2_batch_trials_per_sec=round(batch_tps, 1),
        c2_speedup=round(speedup, 1),
    )

    gap = abs(event_report.degree_bits - batch_report.degree_bits)
    tolerance = 3.0 * (
        event_report.estimate.std_error + batch_report.estimate.std_error
    )
    assert gap <= tolerance

    if smoke:
        return  # tiny budgets; record only
    assert speedup >= MIN_MULTI_SPEEDUP, (
        f"cycle engine reached only {speedup:.1f}x over the hop-by-hop "
        f"event engine at C=2; the floor is {MIN_MULTI_SPEEDUP}x"
    )


def test_paper_scale_crowds_throughput(smoke):
    """Record the cycle engine's trials/sec at N = 100, prices already cached.

    A warm-up run of the same seed prices every class the timed run meets,
    so the timing is the kernel's: draws, classification and counting.
    """
    budgets = SMOKE_SCALE_TRIALS if smoke else SCALE_TRIALS
    model = SystemModel(n_nodes=SCALE_NODES, n_compromised=1)
    results = {}
    for p_forward, trials in budgets.items():
        strategy = PathSelectionStrategy(
            "Crowds",
            GeometricLength(p_forward=p_forward, minimum=1),
            path_model=PathModel.CYCLE_ALLOWED,
        )
        estimator = BatchMonteCarlo(model, strategy)
        estimator.run(trials, rng=1)
        started = time.perf_counter()
        report = estimator.run(trials, rng=1)
        seconds = time.perf_counter() - started
        print()
        print(
            f"N={SCALE_NODES} p_forward={p_forward}: {seconds:8.3f}s "
            f"({trials / seconds:,.0f} trials/sec), estimate {report.estimate}"
        )
        results[p_forward] = (trials, seconds)

    (trials, seconds), (p97_trials, p97_seconds) = results[0.75], results[0.97]
    update_record(
        "cycle",
        smoke=smoke,
        config={
            "n100_n_nodes": SCALE_NODES,
            "n100_trials": trials,
            "n100_p97_trials": p97_trials,
        },
        n100_trials_per_sec=round(trials / seconds, 1),
        n100_p97_trials_per_sec=round(p97_trials / p97_seconds, 1),
        n100_p97_seconds=round(p97_seconds, 3),
    )
