"""Benchmark harness for the closed-form special cases (Theorems 1–3).

The re-derived closed forms are timed and cross-validated against the
event-class engine (same model, independent code path) and against exhaustive
enumeration of a small system (no shared code or symmetry arguments at all).

``test_closed_form_record`` writes ``BENCH_closed_form.json``: the analyses
per second of the event-class engine on a fixed 41-length pmf at N = 100, and
the wall time (median of a few runs) and Newton-step count of one
mean-constrained interior-point run.  That run evaluates the exact value,
gradient and Hessian of ``AnonymityAnalyzer.degree_gradient`` at each step and
calls the event-class engine only twice, to score the returned distribution
and the start.  The record also keeps the median wall time of the width scan
``best_uniform_for_mean`` at N = 100, mean 12 (``scan_seconds``) and the
closed-form analyses one such scan runs (``scan_analyses``): it scores every
width on dense rows and analyses only the widths that tie for the maximum.
It is a trend record (``--smoke`` shrinks the counts), with no floor.
"""

from __future__ import annotations

import statistics
import time

from perf_record import write_record

from repro.core.anonymity import AnonymityAnalyzer
from repro.core.closed_form import fixed_length_degree
from repro.core.model import SystemModel
from repro.core.optimizer import best_uniform_for_mean, optimize_distribution
from repro.distributions import UniformLength
from repro.experiments.theorems import theorem1, theorem2, theorem3

#: Timed analyses of the fixed pmf (full workload / ``--smoke``).
ANALYSES = 5_000
SMOKE_ANALYSES = 500
#: Timed optimiser runs; the record keeps the median one.
OPTIMIZE_RUNS = 5
SMOKE_OPTIMIZE_RUNS = 3
#: Timed width scans; the record keeps the median one.
SCAN_RUNS = 50
SMOKE_SCAN_RUNS = 5


def test_theorem1(benchmark, run_and_report):
    """Theorem 1: fixed-length closed form, validated two independent ways."""
    data = run_and_report(benchmark, theorem1)
    assert data.key_points["max |closed - engine| (N=100)"] < 1e-9


def test_theorem2(benchmark, run_and_report):
    """Theorem 2: two-point length distribution."""
    run_and_report(benchmark, theorem2)


def test_theorem3(benchmark, run_and_report):
    """Theorem 3: uniform length distribution; degree tracks the expectation."""
    data = run_and_report(benchmark, theorem3)
    assert data.key_points["max |U(4, 2L-4) - F(L)| over the sweep (bits)"] < 0.02


def test_closed_form_throughput(benchmark):
    """Raw throughput of the Theorem 1 closed form over a full length sweep.

    This is the kernel every figure sweep calls in its inner loop, so its
    speed bounds the cost of the whole reproduction.
    """

    def sweep():
        return [fixed_length_degree(100, length) for length in range(0, 100)]

    values = benchmark(sweep)
    assert len(values) == 100
    assert max(values) < 6.6


def test_closed_form_record(smoke, monkeypatch):
    """Closed-form throughput, one width scan and one optimiser run (N = 100, mean 12)."""
    model = SystemModel(n_nodes=100, n_compromised=1)
    pmf = UniformLength(0, 40)
    analyzer = AnonymityAnalyzer(model)
    count = SMOKE_ANALYSES if smoke else ANALYSES
    started = time.perf_counter()
    for _ in range(count):
        analyzer.analyze(pmf)
    analyses_per_sec = count / (time.perf_counter() - started)

    seconds = []
    for _ in range(SMOKE_OPTIMIZE_RUNS if smoke else OPTIMIZE_RUNS):
        started = time.perf_counter()
        outcome = optimize_distribution(model, min_length=0, max_length=24, mean=12)
        seconds.append(time.perf_counter() - started)
    optimize_seconds = statistics.median(seconds)

    scan_times = []
    for _ in range(SMOKE_SCAN_RUNS if smoke else SCAN_RUNS):
        started = time.perf_counter()
        best_uniform_for_mean(model, 12)
        scan_times.append(time.perf_counter() - started)
    scan_seconds = statistics.median(scan_times)
    scan_analyses = []
    analyze = AnonymityAnalyzer.analyze

    def counted(self, distribution):
        scan_analyses.append(distribution.name)
        return analyze(self, distribution)

    monkeypatch.setattr(AnonymityAnalyzer, "analyze", counted)
    scan = best_uniform_for_mean(model, 12)
    monkeypatch.undo()

    print(
        f"\nclosed form: {analyses_per_sec:,.0f} analyses/s of {pmf.name} at N=100; "
        f"width scan mean 12: {scan_seconds:.5f} s, {len(scan_analyses)} analyses, "
        f"{scan.best_distribution.name}; "
        f"optimiser mean 12: {optimize_seconds:.4f} s, {outcome.iterations} Newton steps, "
        f"H* = {outcome.degree_bits:.6f} bits"
    )
    write_record(
        "closed_form",
        smoke,
        config={
            "n_nodes": 100,
            "pmf": pmf.name,
            "analyses": count,
            "mean": 12,
            "max_length": 24,
            "optimize_runs": len(seconds),
            "scan_runs": len(scan_times),
        },
        analyses_per_sec=round(analyses_per_sec, 1),
        scan_seconds=round(scan_seconds, 6),
        scan_analyses=len(scan_analyses),
        optimize_seconds=round(optimize_seconds, 4),
        optimize_iterations=outcome.iterations,
        optimize_degree_bits=outcome.degree_bits,
    )
    assert outcome.degree_bits >= analyzer.anonymity_degree(UniformLength(0, 24)) - 1e-9
