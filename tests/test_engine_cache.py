"""Tests for the process-wide engine cache (``repro.batch.engine.shared_engine``).

An engine is a pure function of its configuration, so a process keeps one
engine per configuration and hands it to every run.  The load-bearing
properties:

* a reused engine returns the accumulator bits of a freshly built one, for
  every engine and adversary branch, whatever seeds it served before;
* the key is exact: pmfs equal within ``1e-12`` but different in their bits
  get distinct engines, and one pmf under two names keeps each caller's name
  in its report;
* the cache is bounded and evicts the least recently used engine;
* concurrent service requests return the bits of sequential ones.

The ``sharded`` side (one build per worker across adaptive rounds, warm
pools reproducing inline bits) lives in ``tests/test_sharded.py`` and
``tests/test_telemetry.py``.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.batch import BatchMonteCarlo
from repro.batch import engine as engine_module
from repro.batch.engine import ENGINE_CACHE_SIZE, clear_engine_cache, select_engine
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import Topology
from repro.distributions import CategoricalLength, FixedLength, UniformLength
from repro.routing.strategies import PathSelectionStrategy
from repro.service import DistributionSpec, EstimateRequest, EstimationService

SEEDS = (3, 7, 11)


def _simple(low: int, high: int) -> PathSelectionStrategy:
    distribution = UniformLength(low, high)
    return PathSelectionStrategy(distribution.name, distribution)


def _cycle(low: int, high: int) -> PathSelectionStrategy:
    distribution = UniformLength(low, high)
    return PathSelectionStrategy(
        distribution.name, distribution, path_model=PathModel.CYCLE_ALLOWED
    )


#: Every engine, and every adversary and receiver branch of the arrangement
#: engine: (model, strategy, expected engine).
CONFIGURATIONS = {
    "five-class": (SystemModel(n_nodes=30, n_compromised=1), _simple(2, 8), "five-class"),
    "arrangement-full-bayes": (
        SystemModel(n_nodes=30, n_compromised=2),
        _simple(2, 8),
        "arrangement",
    ),
    "arrangement-position-aware": (
        SystemModel(
            n_nodes=30, n_compromised=2, adversary=AdversaryModel.POSITION_AWARE
        ),
        _simple(2, 8),
        "arrangement",
    ),
    "arrangement-predecessor-only": (
        SystemModel(
            n_nodes=30, n_compromised=2, adversary=AdversaryModel.PREDECESSOR_ONLY
        ),
        _simple(2, 8),
        "arrangement",
    ),
    "arrangement-honest-receiver": (
        SystemModel(n_nodes=30, n_compromised=2, receiver_compromised=False),
        _simple(2, 8),
        "arrangement",
    ),
    "cycle-c2": (
        SystemModel(n_nodes=20, n_compromised=2, path_model=PathModel.CYCLE_ALLOWED),
        _cycle(1, 6),
        "cycle",
    ),
    "topology-grid": (
        SystemModel(
            n_nodes=20, n_compromised=1, topology=Topology.from_spec("grid:4x5", 20)
        ),
        _simple(1, 6),
        "topology",
    ),
    "topology-ring-cycle-c2": (
        SystemModel(
            n_nodes=12,
            n_compromised=2,
            path_model=PathModel.CYCLE_ALLOWED,
            topology=Topology.from_spec("ring", 12),
        ),
        _cycle(1, 6),
        "topology",
    ),
}


def _bits(accumulator) -> tuple:
    """Everything an accumulator holds, with entropies as exact hex strings."""
    return (
        accumulator.n_trials,
        accumulator.length_sum,
        sorted(
            (repr(key), count, entropy.hex(), identified)
            for key, (count, entropy, identified) in accumulator.classes.items()
        ),
    )


@pytest.mark.parametrize("order", [SEEDS, SEEDS[::-1]], ids=["ascending", "descending"])
@pytest.mark.parametrize("name", list(CONFIGURATIONS))
def test_reused_engine_returns_the_bits_of_a_fresh_one(name, order):
    model, strategy, engine_name = CONFIGURATIONS[name]
    compromised = model.compromised_nodes()
    factory = select_engine(model, strategy, compromised)
    clear_engine_cache()
    shared = BatchMonteCarlo(model, strategy).engine
    assert shared.name == engine_name
    for seed in order:
        estimator = BatchMonteCarlo(model, strategy)
        assert estimator.engine is shared
        fresh = factory(model=model, strategy=strategy, compromised=compromised)
        assert _bits(estimator.run_accumulate(4_000, rng=seed)) == _bits(
            fresh.run_accumulate(4_000, rng=seed)
        )


def test_pmfs_equal_within_tolerance_get_distinct_engines():
    model = SystemModel(n_nodes=20, n_compromised=2)
    exact = CategoricalLength({2: 0.5, 3: 0.5}, name="two-or-three")
    nudged = CategoricalLength({2: 0.5 + 1e-13, 3: 0.5 - 1e-13}, name="two-or-three")
    # Equal under the distributions' tolerant equality, different in bits.
    assert exact == nudged
    assert tuple(exact.items()) != tuple(nudged.items())
    first = BatchMonteCarlo(model, PathSelectionStrategy("S", exact))
    second = BatchMonteCarlo(model, PathSelectionStrategy("S", nudged))
    assert first.engine is not second.engine
    assert tuple(first.distribution.items()) == tuple(exact.items())
    assert tuple(second.distribution.items()) == tuple(nudged.items())


def test_one_pmf_under_two_names_keeps_each_callers_name():
    model = SystemModel(n_nodes=20, n_compromised=2)
    pmf = dict(UniformLength(2, 6).items())
    reports = {}
    for name in ("first-name", "second-name"):
        distribution = CategoricalLength(pmf, name=name)
        estimator = BatchMonteCarlo(model, PathSelectionStrategy(name, distribution))
        reports[name] = estimator.run(2_000, rng=5)
    assert reports["first-name"].distribution == "first-name"
    assert reports["second-name"].distribution == "second-name"
    # Same pmf, same seed: the estimates themselves agree bit for bit.
    assert reports["first-name"].estimate == reports["second-name"].estimate


def test_cache_is_bounded_and_evicts_the_least_recently_used():
    strategy = PathSelectionStrategy("F(2)", FixedLength(2))
    models = [
        SystemModel(n_nodes=n_nodes, n_compromised=1)
        for n_nodes in range(3, 3 + ENGINE_CACHE_SIZE + 1)
    ]
    engines = [BatchMonteCarlo(model, strategy).engine for model in models[:-1]]
    assert len(engine_module._ENGINE_CACHE) == ENGINE_CACHE_SIZE
    # Touch the oldest entry, so the second oldest becomes the eviction victim.
    assert BatchMonteCarlo(models[0], strategy).engine is engines[0]
    BatchMonteCarlo(models[-1], strategy)
    assert len(engine_module._ENGINE_CACHE) == ENGINE_CACHE_SIZE
    assert BatchMonteCarlo(models[0], strategy).engine is engines[0]
    assert BatchMonteCarlo(models[2], strategy).engine is engines[2]
    assert BatchMonteCarlo(models[1], strategy).engine is not engines[1]
    assert len(engine_module._ENGINE_CACHE) == ENGINE_CACHE_SIZE


def test_threads_racing_on_cold_engines_keep_every_bit():
    """Eight threads on two cores build, price and run shared engines at once."""
    names = ["arrangement-full-bayes", "arrangement-position-aware", "cycle-c2"]
    jobs = [(name, seed) for name in names for seed in SEEDS] * 4
    expected = {}
    for name, seed in set(jobs):
        model, strategy, _ = CONFIGURATIONS[name]
        compromised = model.compromised_nodes()
        fresh = select_engine(model, strategy, compromised)(
            model=model, strategy=strategy, compromised=compromised
        )
        expected[name, seed] = _bits(fresh.run_accumulate(4_000, rng=seed))

    def run(job):
        name, seed = job
        model, strategy, _ = CONFIGURATIONS[name]
        estimator = BatchMonteCarlo(model, strategy)
        return estimator.engine, _bits(estimator.run_accumulate(4_000, rng=seed))

    clear_engine_cache()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for job, (_, bits) in zip(jobs, results):
        assert bits == expected[job]
    # Racing builds may each have served a run, but the cache kept one.
    assert len(engine_module._ENGINE_CACHE) == len(names)
    for name in names:
        model, strategy, _ = CONFIGURATIONS[name]
        assert BatchMonteCarlo(model, strategy).engine in {
            engine for job, (engine, _) in zip(jobs, results) if job[0] == name
        }


def test_estimate_many_over_threads_returns_the_sequential_bits():
    def request(n_compromised, path_model, seed):
        return EstimateRequest(
            n_nodes=20,
            n_compromised=n_compromised,
            path_model=path_model,
            distribution=DistributionSpec.from_distribution(UniformLength(2, 8)),
            precision=0.02,
            block_size=2_000,
            max_trials=40_000,
            seed=seed,
        )

    # Three seeds per configuration, so threads share engines and race on
    # pricing the same classes.
    requests = [
        request(n_compromised, path_model, seed)
        for n_compromised, path_model in (
            (1, "simple"),
            (2, "simple"),
            (2, "cycle_allowed"),
        )
        for seed in (1, 2, 3)
    ]
    with EstimationService(max_workers=4) as service:
        concurrent = service.estimate_many(requests)
    clear_engine_cache()
    with EstimationService(max_workers=1) as service:
        sequential = [service.estimate(request) for request in requests]
    for threaded, alone in zip(concurrent, sequential):
        assert threaded.report.estimate.mean.hex() == alone.report.estimate.mean.hex()
        assert threaded.report == alone.report
        assert threaded.trajectory == alone.trajectory
