"""Shared helpers for the benchmark harness.

Every benchmark regenerates the data behind one figure (or theorem, or
extension study) of the paper, prints it as a text table — so the benchmark
log is itself the reproduction record — and asserts the paper's qualitative
claims on the regenerated data.  Timing comes from ``pytest-benchmark``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.batch.engine import clear_engine_cache


@pytest.fixture(autouse=True)
def _cold_engine_cache() -> None:
    """Start every benchmark from an empty engine cache.

    Engines are shared per process, so without this a benchmark that times a
    cold estimate would time one warmed by an earlier benchmark.
    """
    clear_engine_cache()


def pytest_addoption(parser):
    """``--smoke``: reduced workloads for the CI smoke job.

    In smoke mode the headline benchmarks (``bench_batch``, ``bench_sharded``,
    ``bench_service``) shrink their trial counts so the whole run takes
    seconds, still exercising every code path and still writing their
    ``BENCH_*.json`` records — but performance *floors* are only asserted on
    the full workloads, where timing is meaningful.
    """
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run reduced benchmark workloads (records written, floors not asserted)",
    )


@pytest.fixture
def smoke(request) -> bool:
    """Whether ``--smoke`` was passed on the command line."""
    return bool(request.config.getoption("--smoke"))


def report(data) -> None:
    """Print one experiment's rendered tables, fenced for readability."""
    print()
    print("=" * 78)
    print(data.render())
    print("=" * 78)


@pytest.fixture
def run_and_report():
    """Benchmark an experiment generator once and print its rendered output."""

    def runner(benchmark, generator, *args, **kwargs):
        data = benchmark.pedantic(
            lambda: generator(*args, **kwargs), rounds=1, iterations=1
        )
        report(data)
        failed = [name for name, ok in data.checks.items() if not ok]
        assert not failed, f"qualitative checks failed: {failed}"
        return data

    return runner
