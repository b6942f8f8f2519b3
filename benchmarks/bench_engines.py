"""Micro-benchmarks of the computational engines themselves.

These are not paper figures; they document the cost of the building blocks a
downstream user composes: the exact anonymity-degree computation, the
Bayesian posterior for one observation, the optimizer, a single end-to-end
protocol transmission, and the Monte-Carlo estimator — plus the kernel
record: every clique engine's ``accumulate_chunk`` throughput (and each
arrangement coder path's), written to ``BENCH_engines.json``, with the
asserted floor **five-class >= 44.72 M trials/s** on the full workload.
"""

from __future__ import annotations

import time

import numpy as np
from perf_record import write_record

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.batch import engine as engine_module
from repro.batch.engine import TrialEngine, select_engine
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.optimizer import best_uniform_for_mean
from repro.distributions import FixedLength, GeometricLength, UniformLength
from repro.protocols import OnionRoutingI
from repro.routing.strategies import (
    PathSelectionStrategy,
    deployed_system_strategies,
)
from repro.simulation import AnonymousCommunicationSystem, StrategyMonteCarlo


def test_exact_degree_uniform_strategy(benchmark):
    """Exact H* for a wide uniform strategy in the paper-sized system."""
    analyzer = AnonymityAnalyzer(SystemModel(n_nodes=100))
    distribution = UniformLength(0, 99)
    value = benchmark(analyzer.anonymity_degree, distribution)
    assert 6.4 < value < 6.65


def test_posterior_inference_single_observation(benchmark):
    """Exact Bayesian posterior for one observation with three compromised nodes."""
    model = SystemModel(n_nodes=100, n_compromised=3)
    inference = BayesianPathInference(model, UniformLength(1, 20))
    observation = observation_from_path(
        50, (7, 0, 23, 1, 64, 31), model.compromised_nodes()
    )
    posterior = benchmark(inference.posterior, observation)
    assert abs(sum(posterior.probabilities.values()) - 1.0) < 1e-9


def test_uniform_family_optimization(benchmark):
    """Width optimization of the uniform family for one target expectation."""
    model = SystemModel(n_nodes=100)
    scan = benchmark(best_uniform_for_mean, model, 20)
    assert scan.best_degree >= scan.degrees[0]


def test_end_to_end_protocol_send(benchmark):
    """One Onion Routing I transmission through the discrete-event engine."""
    model = SystemModel(n_nodes=50, n_compromised=2)
    system = AnonymousCommunicationSystem(model=model, protocol=OnionRoutingI(50))
    rng = np.random.default_rng(0)

    def send_one():
        sender = int(rng.integers(0, 50))
        return system.send(sender, payload="bench", rng=rng)

    outcome = benchmark(send_one)
    assert outcome.delivery.path_length == 5


def test_monte_carlo_batch(benchmark):
    """A 200-trial Monte-Carlo estimate for the Onion Routing I strategy."""
    model = SystemModel(n_nodes=60, n_compromised=1)
    strategy = deployed_system_strategies()["onion-routing-1"]
    experiment = StrategyMonteCarlo(model, strategy)

    report = benchmark.pedantic(
        lambda: experiment.run(200, rng=5), rounds=1, iterations=1
    )
    exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(5))
    assert report.estimate.contains(exact, slack=0.05)


# ---------------------------------------------------------------------- #
# Kernel throughput: one accumulate_chunk per engine                      #
# ---------------------------------------------------------------------- #

#: The kernel workload: the paper-sized system over geometric lengths.
KERNEL_NODES = 100
KERNEL_TRIALS = 2_000_000
KERNEL_SMOKE_TRIALS = 100_000
KERNEL_DISTRIBUTION = GeometricLength(0.25, max_length=40)
#: Chunk size of the measurement — cache-resident chunks, set on
#: ``repro.batch.engine.CHUNK_TRIALS`` for the test and restored after it; one
#: 2M-trial block would measure allocator and cache pressure on its
#: temporaries instead of kernel cost.
KERNEL_CHUNK = 16_384
#: Acceptance floor on the five-class kernel, in trials/sec: twice the median
#: of seven runs of the retired staged five-class pipeline on this workload
#: (22.36M trials/s on a 2-core Xeon, Python 3.11, numpy 2.4), which is the
#: old "fused >= 2x staged" guarantee restated as an absolute number.
MIN_FIVE_CLASS_TRIALS_PER_SEC = 44_720_000

#: The engine domains measured: (record key, path model, compromised set,
#: adversary).  Arrangement is measured once per coder path: full Bayes
#: codes, position-aware codes, and the predecessor-only counts that skip
#: the slot decode.
KERNEL_DOMAINS = [
    ("five_class", PathModel.SIMPLE, frozenset({7}), AdversaryModel.FULL_BAYES),
    ("arrangement", PathModel.SIMPLE, frozenset({7, 23}), AdversaryModel.FULL_BAYES),
    (
        "arrangement_predecessor_only",
        PathModel.SIMPLE,
        frozenset({7, 23, 61}),
        AdversaryModel.PREDECESSOR_ONLY,
    ),
    (
        "arrangement_position_aware",
        PathModel.SIMPLE,
        frozenset({7, 23, 61}),
        AdversaryModel.POSITION_AWARE,
    ),
    ("cycle", PathModel.CYCLE_ALLOWED, frozenset({7}), AdversaryModel.FULL_BAYES),
]


def _kernel_engine(path_model, compromised, adversary) -> TrialEngine:
    model = SystemModel(
        n_nodes=KERNEL_NODES,
        n_compromised=len(compromised),
        adversary=adversary,
        path_model=path_model,
    )
    strategy = PathSelectionStrategy(
        KERNEL_DISTRIBUTION.name, KERNEL_DISTRIBUTION, path_model=path_model
    )
    factory = select_engine(model, strategy, compromised)
    return factory(model, strategy, compromised)


def _accumulate_tps(engine: TrialEngine, n_trials: int) -> float:
    """Best-of-three trials/sec of one engine's ``run_accumulate``."""
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        engine.run_accumulate(n_trials, rng=9)
        best = max(best, n_trials / (time.perf_counter() - started))
    return best


def test_kernel_throughput_floor(smoke, monkeypatch):
    """The kernel record: trials/sec of every clique engine's kernel.

    The five-class floor is asserted on the full workload only; arrangement
    (per coder path) and cycle throughput are recorded without a floor.
    """
    monkeypatch.setattr(engine_module, "CHUNK_TRIALS", KERNEL_CHUNK)
    n_trials = KERNEL_SMOKE_TRIALS if smoke else KERNEL_TRIALS
    results: dict[str, float] = {}
    print()
    for key, path_model, compromised, adversary in KERNEL_DOMAINS:
        engine = _kernel_engine(path_model, compromised, adversary)
        accumulator = engine.run_accumulate(50_000, rng=1)  # prices every class
        assert sum(count for count, _, _ in accumulator.classes.values()) == 50_000
        tps = _accumulate_tps(engine, n_trials)
        # The record keys keep their historical ``fused_`` prefix so the
        # cross-run trend history lines up with earlier records.
        results[f"fused_{key}_trials_per_sec"] = round(tps, 1)
        print(f"{key:<28}: {tps:>12,.0f} trials/sec")

    write_record(
        "engines",
        smoke=smoke,
        config={
            "n_nodes": KERNEL_NODES,
            "n_trials": n_trials,
            "chunk_trials": KERNEL_CHUNK,
            "distribution": KERNEL_DISTRIBUTION.name,
            "floor_fused_five_class_trials_per_sec": MIN_FIVE_CLASS_TRIALS_PER_SEC,
        },
        **results,
    )

    if smoke:
        return  # floors are only meaningful on the full workload
    assert results["fused_five_class_trials_per_sec"] >= MIN_FIVE_CLASS_TRIALS_PER_SEC, (
        f"five-class kernel ran {results['fused_five_class_trials_per_sec']:,.0f} "
        f"trials/sec; the floor is {MIN_FIVE_CLASS_TRIALS_PER_SEC:,} trials/sec"
    )
