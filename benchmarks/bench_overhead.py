"""Benchmark: overhead, in both senses the repo cares about.

* the paper's **anonymity-versus-overhead** trade-off (Section 1): rerouting
  buys anonymity with latency and traffic, so the useful output for a system
  designer is the Pareto frontier of (expected overhead, anonymity degree)
  and the marginal value of each additional hop;
* the telemetry subsystem's **instrumentation overhead**: with telemetry
  disabled (the null registry) the per-chunk cost of the hot-path hooks must
  stay under 5% of the chunk's own compute, and enabling collection must not
  blow up the end-to-end time.  Both numbers land in
  ``BENCH_telemetry_overhead.json``; the 5% floor is asserted on the full
  workload only (``--smoke`` still writes the record).
"""

from __future__ import annotations

import time

from perf_record import write_record

from repro.analysis.overhead import anonymity_per_hop, evaluate_tradeoff, pareto_frontier
from repro.batch import engine as engine_module
from repro.batch.engine import select_engine
from repro.core.model import SystemModel
from repro.distributions import FixedLength, UniformLength
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry import activate, get_registry
from repro.utils.tables import format_table


def test_pareto_frontier(benchmark):
    """Efficient strategies among the fixed and uniform families (N=100, C=1)."""
    model = SystemModel(n_nodes=100, n_compromised=1)
    strategies = {f"F({l})": FixedLength(l) for l in (1, 2, 3, 5, 8, 13, 21, 34, 55, 80)}
    strategies.update(
        {f"U(1, {2 * mean - 1})": UniformLength(1, 2 * mean - 1) for mean in (3, 6, 12, 24)}
    )

    def compute():
        points = evaluate_tradeoff(model, strategies)
        return points, pareto_frontier(points)

    points, frontier = benchmark(compute)
    print()
    print(
        format_table(
            ("strategy", "E[L] (overhead)", "H*(S) bits", "normalized", "efficient"),
            [
                (
                    p.name,
                    p.expected_overhead,
                    p.degree_bits,
                    p.normalized,
                    "yes" if p in frontier else "",
                )
                for p in points
            ],
            title="Anonymity vs overhead, N=100, C=1",
        )
    )
    assert frontier
    assert all(not other.dominates(point) for point in frontier for other in points)


def test_marginal_anonymity_per_hop(benchmark):
    """Marginal anonymity of each additional hop; hops beyond the optimum cost anonymity."""
    model = SystemModel(n_nodes=100, n_compromised=1)
    rows = benchmark(anonymity_per_hop, model)
    last_useful_hop = max(length for length, _, gain in rows if gain > 1e-9)
    print(f"\nthe last hop that still buys anonymity is hop {last_useful_hop}")
    # The optimum is interior: beyond it every additional hop strictly costs
    # anonymity (the paper's long-path effect).
    assert 4 < last_useful_hop < model.max_simple_path_length
    beyond = [gain for length, _, gain in rows if length > last_useful_hop]
    assert all(gain <= 1e-9 for gain in beyond)


#: Telemetry-overhead workload: small chunks stress the per-chunk hooks.  The
#: chunk size is set on ``repro.batch.engine.CHUNK_TRIALS`` for the test.
OVERHEAD_TRIALS = 200_000
SMOKE_OVERHEAD_TRIALS = 20_000
OVERHEAD_CHUNK = 1_000
#: The contract of docs/observability.md: disabled instrumentation costs at
#: most this fraction of a chunk's own compute.
MAX_DISABLED_OVERHEAD = 0.05


def test_telemetry_overhead_bounds(smoke, monkeypatch):
    """Disabled telemetry <= 5% of chunk time; enabled collection stays sane.

    The disabled hot path in ``TrialEngine.run_accumulate`` is one ``enabled``
    branch per chunk (twice), so its cost is measured directly — the no-op
    sequence timed in isolation — and compared against the measured per-chunk
    compute.  The measured sequence also covers the flight recorder's
    off-by-default branches: the service's ``journal is None`` check and the
    span hook's ``profiler is None`` lookup, so the ≤5% contract includes a
    disabled run ledger and a disabled stage profiler, not just bare
    telemetry.  The end-to-end enabled/disabled ratio is recorded alongside.
    """
    trials = SMOKE_OVERHEAD_TRIALS if smoke else OVERHEAD_TRIALS
    model = SystemModel(n_nodes=100, n_compromised=1)
    strategy = PathSelectionStrategy(
        name="U(2, 8)", distribution=UniformLength(2, 8)
    )
    compromised = frozenset(model.compromised_nodes())
    factory = select_engine(model, strategy, compromised)
    engine = factory(model=model, strategy=strategy, compromised=compromised)
    monkeypatch.setattr(engine_module, "CHUNK_TRIALS", OVERHEAD_CHUNK)

    def run_seconds() -> float:
        started = time.perf_counter()
        engine.run_accumulate(trials, rng=0)
        return time.perf_counter() - started

    run_seconds()  # warm-up (imports, allocator, numpy dispatch)
    disabled_seconds = min(run_seconds() for _ in range(3))
    with activate():
        enabled_seconds = min(run_seconds() for _ in range(3))

    # The added work per chunk with the null registry active, timed alone:
    # the engine's two enabled checks, the service's disabled-journal branch,
    # and the span hook's disabled-profiler lookup.
    telemetry = get_registry()
    assert not telemetry.enabled
    journal = None
    iterations = 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        chunk_started = telemetry.clock() if telemetry.enabled else 0.0
        if telemetry.enabled:
            pass
        if journal is not None:
            pass
        profiler = getattr(telemetry, "profiler", None)
        if profiler is not None:
            pass
    noop_chunk_seconds = (time.perf_counter() - started) / iterations
    assert chunk_started == 0.0
    assert profiler is None

    n_chunks = trials // OVERHEAD_CHUNK
    chunk_seconds = disabled_seconds / n_chunks
    disabled_ratio = noop_chunk_seconds / chunk_seconds
    enabled_ratio = enabled_seconds / disabled_seconds

    print()
    print(f"chunk compute            : {chunk_seconds * 1e6:10.2f} us")
    print(f"disabled hooks per chunk : {noop_chunk_seconds * 1e9:10.2f} ns "
          f"({disabled_ratio:.4%} of the chunk)")
    print(f"enabled / disabled       : {enabled_ratio:10.3f}x end-to-end")

    write_record(
        "telemetry_overhead",
        smoke=smoke,
        config={
            "n_trials": trials,
            "chunk_trials": OVERHEAD_CHUNK,
            "n_nodes": model.n_nodes,
            "floor_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "covers": "telemetry+journal+profiler disabled branches",
        },
        disabled_seconds=round(disabled_seconds, 5),
        enabled_seconds=round(enabled_seconds, 5),
        chunk_seconds=round(chunk_seconds, 8),
        disabled_noop_per_chunk_seconds=round(noop_chunk_seconds, 10),
        disabled_overhead_ratio=round(disabled_ratio, 6),
        enabled_over_disabled=round(enabled_ratio, 4),
    )

    if not smoke:
        # Timing floors are asserted on the full workload only.
        assert disabled_ratio <= MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {disabled_ratio:.2%} of a "
            f"{OVERHEAD_CHUNK}-trial chunk; the contract is "
            f"<= {MAX_DISABLED_OVERHEAD:.0%}"
        )
        assert enabled_ratio <= 2.0, (
            f"enabled telemetry is {enabled_ratio:.2f}x the disabled run; "
            "per-chunk collection should never dominate the compute"
        )
