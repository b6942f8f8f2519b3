"""Throughput benchmark: the topology engine vs hop-by-hop on restricted graphs.

This is the perf record for the graph-general fast path of
:mod:`repro.batch.topoengine`: a ring and a 4x5 grid of ``N=20`` nodes, one
compromised node, a uniform length strategy, estimated

* hop by hop through :class:`~repro.simulation.experiment.StrategyMonteCarlo`
  (one concrete path drawn through the graph selectors, one exact
  topology-table posterior per trial), and
* through the columnar :class:`~repro.batch.estimator.BatchMonteCarlo`
  ``topology`` engine (two bulk draws per trial resolved against per-sender
  inverse CDFs over the enumerated path law, one exact posterior per
  *class*).

The asserted floor — **batch >= 25x the event engine's trials/sec** on each
graph — is the acceptance criterion of the engine; the construction cost
(enumerating the path law once) is included in the timed batch run, so the
floor also guards against enumeration regressions.  The record also carries
the construction time on its own (``construct_seconds``,
``grid_construct_seconds``), a trend with no floor.

Both engines are statistically identical (their per-trial entropies follow
the same law), which the parity test checks before anything is timed.

The measurement writes a machine-readable ``BENCH_topology.json`` record
(see :mod:`perf_record`); the grid case merges its numbers into the same
record under ``grid_``-prefixed keys.  Under ``--smoke`` the budgets shrink
so the whole run takes seconds; the records are written but the floors are
not asserted.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_topology.py -q -s
"""

from __future__ import annotations

import time

from perf_record import update_record, write_record

from repro.batch import BatchMonteCarlo
from repro.core.model import SystemModel
from repro.core.topology import Topology
from repro.distributions import UniformLength
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.experiment import StrategyMonteCarlo

#: The workload: N = 20 nodes routed over a ring and a 4x5 grid.
N_NODES = 20
LOW, HIGH = 1, 6
EVENT_TRIALS = 2_000
BATCH_TRIALS = 1_000_000
SMOKE_EVENT_TRIALS = 300
SMOKE_BATCH_TRIALS = 50_000
#: Acceptance floor for the topology engine over hop-by-hop estimation.
MIN_SPEEDUP = 25.0


def _workload(topology: Topology):
    model = SystemModel(n_nodes=N_NODES, n_compromised=1, topology=topology)
    strategy = PathSelectionStrategy("topology walk", UniformLength(LOW, HIGH))
    return model, strategy


def test_topology_batch_matches_event_statistics():
    """Sanity before speed: the two topology paths agree statistically."""
    model, strategy = _workload(Topology.ring(N_NODES))
    event = StrategyMonteCarlo(model, strategy).run(1_500, rng=0)
    batch = BatchMonteCarlo(model, strategy).run(150_000, rng=0)
    gap = abs(event.degree_bits - batch.degree_bits)
    tolerance = 3.0 * (event.estimate.std_error + batch.estimate.std_error)
    assert gap <= tolerance, (
        f"event {event.estimate} vs batch {batch.estimate} differ by {gap:.5f}"
    )


def _measure(topology: Topology, event_trials: int, batch_trials: int):
    model, strategy = _workload(topology)

    event_engine = StrategyMonteCarlo(model, strategy)
    started = time.perf_counter()
    event_report = event_engine.run(event_trials, rng=0)
    event_seconds = time.perf_counter() - started

    # Construction (the one-time path-law enumeration) is part of the timing:
    # it is the cost a cold estimate actually pays.  It is also reported on
    # its own, as a trend of the cold path.
    started = time.perf_counter()
    batch_engine = BatchMonteCarlo(model, strategy)
    construct_seconds = time.perf_counter() - started
    assert batch_engine.engine.name == "topology"
    batch_report = batch_engine.run(batch_trials, rng=0)
    batch_seconds = time.perf_counter() - started

    event_tps = event_trials / event_seconds
    batch_tps = batch_trials / batch_seconds
    speedup = batch_tps / event_tps
    print()
    print(f"topology {topology.spec}")
    print(f"event (hop-by-hop)   : {event_seconds:8.2f}s ({event_tps:,.0f} trials/sec)")
    print(f"batch (topology eng.): {batch_seconds:8.2f}s ({batch_tps:,.0f} trials/sec)")
    print(f"  of which construction: {construct_seconds:6.3f}s")
    print(f"speedup              : {speedup:8.1f}x")
    print(f"event estimate {event_report.estimate}")
    print(f"batch estimate {batch_report.estimate}")

    gap = abs(event_report.degree_bits - batch_report.degree_bits)
    tolerance = 3.0 * (
        event_report.estimate.std_error + batch_report.estimate.std_error
    )
    assert gap <= tolerance
    return event_seconds, batch_seconds, construct_seconds, event_tps, batch_tps, speedup


def test_topology_ring_speedup_floor(smoke):
    """The acceptance criterion on a ring: >= 25x hop-by-hop trials/sec."""
    event_trials = SMOKE_EVENT_TRIALS if smoke else EVENT_TRIALS
    batch_trials = SMOKE_BATCH_TRIALS if smoke else BATCH_TRIALS
    (
        event_seconds,
        batch_seconds,
        construct_seconds,
        event_tps,
        batch_tps,
        speedup,
    ) = _measure(
        Topology.ring(N_NODES), event_trials, batch_trials
    )

    write_record(
        "topology",
        smoke=smoke,
        config={
            "n_nodes": N_NODES,
            "n_compromised": 1,
            "topology": "ring",
            "lengths": [LOW, HIGH],
            "event_trials": event_trials,
            "batch_trials": batch_trials,
            "floor_speedup": MIN_SPEEDUP,
        },
        event_seconds=round(event_seconds, 3),
        batch_seconds=round(batch_seconds, 3),
        construct_seconds=round(construct_seconds, 4),
        event_trials_per_sec=round(event_tps, 1),
        batch_trials_per_sec=round(batch_tps, 1),
        speedup=round(speedup, 1),
    )

    if smoke:
        return  # tiny budgets; record only
    assert speedup >= MIN_SPEEDUP, (
        f"topology engine reached only {speedup:.1f}x over the hop-by-hop "
        f"event engine on a ring; the floor is {MIN_SPEEDUP}x"
    )


def test_topology_grid_speedup_floor(smoke):
    """The same floor on a 4x5 grid (richer path space, larger class table)."""
    event_trials = SMOKE_EVENT_TRIALS if smoke else EVENT_TRIALS
    batch_trials = SMOKE_BATCH_TRIALS if smoke else BATCH_TRIALS
    (
        event_seconds,
        batch_seconds,
        construct_seconds,
        event_tps,
        batch_tps,
        speedup,
    ) = _measure(
        Topology.grid(4, 5), event_trials, batch_trials
    )

    update_record(
        "topology",
        smoke=smoke,
        config={
            "grid_topology": "grid:4x5",
            "grid_event_trials": event_trials,
            "grid_batch_trials": batch_trials,
            "grid_floor_speedup": MIN_SPEEDUP,
        },
        grid_event_seconds=round(event_seconds, 3),
        grid_batch_seconds=round(batch_seconds, 3),
        grid_construct_seconds=round(construct_seconds, 4),
        grid_event_trials_per_sec=round(event_tps, 1),
        grid_batch_trials_per_sec=round(batch_tps, 1),
        grid_speedup=round(speedup, 1),
    )

    if smoke:
        return  # tiny budgets; record only
    assert speedup >= MIN_SPEEDUP, (
        f"topology engine reached only {speedup:.1f}x over the hop-by-hop "
        f"event engine on a 4x5 grid; the floor is {MIN_SPEEDUP}x"
    )
