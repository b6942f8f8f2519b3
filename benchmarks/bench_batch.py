"""Throughput benchmark: the vectorized batch estimator vs the hop-by-hop path.

This is the perf baseline for the ``repro.batch`` subsystem: the same
10k-trial estimation job (N=20 nodes, one compromised, uniform path lengths)
run through the ``event`` backend (``StrategyMonteCarlo`` — one observation
object and one exact posterior per trial) and through the ``batch`` backend
(the five-class engine's numpy kernel).

The asserted floor — **batch >= 10x the trials/sec of the hop-by-hop
estimator** — is deliberately far below the typical measured ratio
(thousands of x) so the benchmark documents the speedup without being
timing-flaky; future PRs that regress the fast path will still trip it long
before users notice.

The headline measurement also writes a machine-readable ``BENCH_batch.json``
record (see :mod:`perf_record`) so the perf trajectory is tracked across PRs.
Under ``--smoke`` the workload shrinks and the floor is not asserted — the
record is still written, flagged ``"smoke": true``.

Run with::

    pytest benchmarks/bench_batch.py --benchmark-only -q
"""

from __future__ import annotations

import time

from perf_record import write_record

from repro.batch import BatchMonteCarlo
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.distributions import UniformLength
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.experiment import StrategyMonteCarlo

#: The workload of the acceptance criterion: 10k trials, N=20, uniform lengths.
N_NODES = 20
N_TRIALS = 10_000
SMOKE_TRIALS = 2_000
DISTRIBUTION = UniformLength(2, 8)
#: Minimum required speedup of the batch engine over the per-observation
#: estimator (the measured ratio is far larger).
MIN_SPEEDUP = 10.0


def _workload():
    model = SystemModel(n_nodes=N_NODES, n_compromised=1)
    strategy = PathSelectionStrategy(DISTRIBUTION.name, DISTRIBUTION)
    return model, strategy


def _trials(smoke: bool) -> int:
    return SMOKE_TRIALS if smoke else N_TRIALS


def _trials_per_second(run, n_trials: int) -> float:
    started = time.perf_counter()
    run()
    return n_trials / (time.perf_counter() - started)


def test_event_backend_throughput(benchmark, smoke):
    """Baseline: the hop-by-hop StrategyMonteCarlo at the benchmark workload."""
    model, strategy = _workload()
    estimator = StrategyMonteCarlo(model, strategy)
    report = benchmark.pedantic(
        lambda: estimator.run(_trials(smoke), rng=0), rounds=1, iterations=1
    )
    exact = AnonymityAnalyzer(model).anonymity_degree(DISTRIBUTION)
    assert report.estimate.contains(exact, slack=0.02)


def test_batch_backend_throughput(benchmark, smoke):
    """The batch engine at the same workload."""
    model, strategy = _workload()
    estimator = BatchMonteCarlo(model, strategy)
    report = benchmark.pedantic(
        lambda: estimator.run(_trials(smoke), rng=0), rounds=3, iterations=1
    )
    exact = AnonymityAnalyzer(model).anonymity_degree(DISTRIBUTION)
    assert report.estimate.contains(exact, slack=0.02)


def test_batch_speedup_floor(smoke):
    """The acceptance criterion: batch >= 10x hop-by-hop trials/sec.

    Measured directly (not via pytest-benchmark) so the ratio is computed in
    one process run, printed into the benchmark log, and written to
    ``BENCH_batch.json`` as the machine-readable perf record.
    """
    n_trials = _trials(smoke)
    model, strategy = _workload()
    exact = AnonymityAnalyzer(model).anonymity_degree(DISTRIBUTION)

    event = StrategyMonteCarlo(model, strategy)
    event_tps = _trials_per_second(lambda: event.run(n_trials, rng=0), n_trials)

    batch = BatchMonteCarlo(model, strategy)
    batch_tps = _trials_per_second(lambda: batch.run(n_trials, rng=0), n_trials)

    report = batch.run(n_trials, rng=0)
    print()
    print(f"event (hop-by-hop)     : {event_tps:>12,.0f} trials/sec")
    print(f"batch (numpy kernel)   : {batch_tps:>12,.0f} trials/sec "
          f"({batch_tps / event_tps:,.0f}x)")
    print(f"estimate {report.estimate} vs exact {exact:.4f}")

    write_record(
        "batch",
        smoke=smoke,
        config={
            "n_nodes": N_NODES,
            "n_trials": n_trials,
            "distribution": DISTRIBUTION.name,
            "floor_speedup": MIN_SPEEDUP,
        },
        event_trials_per_sec=round(event_tps, 1),
        batch_numpy_trials_per_sec=round(batch_tps, 1),
        speedup_numpy=round(batch_tps / event_tps, 2),
    )

    assert report.estimate.contains(exact, slack=0.02)
    if smoke:
        return  # floors are only meaningful on the full workload
    assert batch_tps >= MIN_SPEEDUP * event_tps, (
        f"batch engine is only {batch_tps / event_tps:.1f}x the "
        f"hop-by-hop estimator; the floor is {MIN_SPEEDUP}x"
    )
