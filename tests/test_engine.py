"""Tests for the ``TrialEngine`` protocol and engine selection.

Two load-bearing contracts:

* **totality** — for every ``(path_model, C, receiver)`` combination in the
  supported domain, :func:`repro.batch.select_engine` returns an engine, and
  each domain maps to its one engine;
* **one kernel** — a ``TrialEngine`` subclass needs only
  ``accumulate_chunk`` to run and report, and a shard task, which carries no
  engine, runs in a worker on the engine ``BatchMonteCarlo`` selects for the
  same configuration, bit for bit.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.batch import (
    ArrangementEngine,
    BatchAccumulator,
    BatchMonteCarlo,
    CycleBatchEngine,
    FiveClassEngine,
    TopologyEngine,
    TrialEngine,
    select_engine,
)
from repro.batch import engine as engine_module
from repro.batch.engine import clear_engine_cache
from repro.batch.sharded import ShardedBackend, _run_shard
from repro.core.model import PathModel, SystemModel
from repro.core.topology import Topology
from repro.distributions import UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy

N_NODES = 7


def strategy_for(path_model: PathModel) -> PathSelectionStrategy:
    return PathSelectionStrategy(
        "U(1, 3)", UniformLength(1, 3), path_model=path_model
    )


class TestEngineSelectionTotality:
    @pytest.mark.parametrize(
        "path_model, n_compromised, receiver_compromised",
        list(
            itertools.product(
                list(PathModel), range(N_NODES + 1), [True, False]
            )
        ),
    )
    def test_every_supported_configuration_selects_an_engine(
        self, path_model, n_compromised, receiver_compromised
    ):
        """No (path_model, C, receiver) combination falls through to a raise."""
        model = SystemModel(
            n_nodes=N_NODES,
            n_compromised=n_compromised,
            path_model=path_model,
            receiver_compromised=receiver_compromised,
        )
        strategy = strategy_for(path_model)
        factory = select_engine(model, strategy, model.compromised_nodes())
        assert callable(factory)
        engine = factory(
            model=model,
            strategy=strategy,
            compromised=model.compromised_nodes(),
        )
        assert isinstance(engine, TrialEngine)
        accumulator = engine.run_accumulate(64, rng=5)
        assert accumulator.n_trials == 64
        assert sum(count for count, _, _ in accumulator.classes.values()) == 64

    def test_built_in_domains_map_to_the_expected_engines(self):
        simple = strategy_for(PathModel.SIMPLE)
        cycles = strategy_for(PathModel.CYCLE_ALLOWED)

        def selected(model, strategy):
            return select_engine(model, strategy, model.compromised_nodes())

        core = SystemModel(n_nodes=N_NODES, n_compromised=1)
        assert selected(core, simple) is FiveClassEngine
        honest = SystemModel(
            n_nodes=N_NODES, n_compromised=1, receiver_compromised=False
        )
        assert selected(honest, simple) is ArrangementEngine
        for c in (0, 2, 3):
            multi = SystemModel(n_nodes=N_NODES, n_compromised=c)
            assert selected(multi, simple) is ArrangementEngine
        for c in (0, 1, 2, 3):
            multi = SystemModel(n_nodes=N_NODES, n_compromised=c)
            assert selected(multi, cycles) is CycleBatchEngine
        ring = SystemModel(n_nodes=N_NODES, topology=Topology.ring(N_NODES))
        for strategy in (simple, cycles):
            assert selected(ring, strategy) is TopologyEngine


class _ConstantEngine(TrialEngine):
    """A degenerate engine with only its kernel: every trial one class."""

    name = "constant"

    def accumulate_chunk(self, n_trials, generator):
        generator.integers(0, 2, size=n_trials)  # honour the RNG protocol
        # Every "path" has length 1 and every trial lands in one class.
        return n_trials, {"constant-class": (n_trials, 1.5, False)}


class TestOneKernelEngine:
    @pytest.mark.parametrize("chunk_trials", [None, 128], ids=["one-chunk", "chunked"])
    def test_kernel_alone_runs_and_reports(self, chunk_trials, monkeypatch):
        if chunk_trials is not None:
            monkeypatch.setattr(engine_module, "CHUNK_TRIALS", chunk_trials)
        model = SystemModel(n_nodes=N_NODES)
        engine = _ConstantEngine(
            model=model,
            strategy=strategy_for(PathModel.SIMPLE),
            compromised=model.compromised_nodes(),
        )
        chunks: list[int] = []
        kernel = engine.accumulate_chunk

        def recording(n_trials, generator):
            chunks.append(n_trials)
            return kernel(n_trials, generator)

        monkeypatch.setattr(engine, "accumulate_chunk", recording)
        report = engine.run(500, rng=1)
        assert chunks == ([500] if chunk_trials is None else [128, 128, 128, 116])
        assert report.n_trials == 500
        assert report.degree_bits == 1.5
        assert report.estimate.std_error == 0.0
        assert report.mean_path_length == 1.0


class TestEngineDomains:
    def test_engines_reject_configurations_outside_their_domain(self):
        model = SystemModel(n_nodes=N_NODES, n_compromised=2)
        simple = strategy_for(PathModel.SIMPLE)
        cycles = strategy_for(PathModel.CYCLE_ALLOWED)
        with pytest.raises(ConfigurationError, match="five-class"):
            FiveClassEngine(
                model=model, strategy=simple, compromised=frozenset({0, 1})
            )
        with pytest.raises(ConfigurationError, match="cycle-allowed"):
            CycleBatchEngine(
                model=model, strategy=simple, compromised=frozenset({0, 1})
            )
        with pytest.raises(ConfigurationError, match="simple-path"):
            ArrangementEngine(
                model=model, strategy=cycles, compromised=frozenset({0, 1})
            )
        ring = SystemModel(
            n_nodes=N_NODES, n_compromised=2, topology=Topology.ring(N_NODES)
        )
        with pytest.raises(ConfigurationError, match="topology engine"):
            CycleBatchEngine(
                model=ring, strategy=cycles, compromised=frozenset({0, 1})
            )

    def test_accumulators_merge_across_engines_of_one_configuration(self):
        model = SystemModel(n_nodes=N_NODES, n_compromised=2)
        strategy = strategy_for(PathModel.CYCLE_ALLOWED)
        engine = CycleBatchEngine(
            model=model, strategy=strategy, compromised=frozenset({0, 1})
        )
        parts = [engine.run_accumulate(1_000, rng=seed) for seed in (1, 2)]
        merged = BatchAccumulator.merge(parts)
        assert merged.n_trials == 2_000
        report = merged.report(model, engine.distribution.name)
        assert report.n_trials == 2_000


class TestFiveClassStillExact:
    def test_dispatcher_matches_direct_engine_use(self):
        model = SystemModel(n_nodes=12)
        strategy = strategy_for(PathModel.SIMPLE)
        direct = FiveClassEngine(
            model=model, strategy=strategy, compromised=frozenset({0})
        ).run_accumulate(4_000, rng=3)
        dispatched = BatchMonteCarlo(model, strategy).run_accumulate(
            4_000, rng=3
        )
        assert direct == dispatched


#: One configuration per built-in engine (cycle at two C): (engine, model, path model).
ENGINE_CONFIGURATIONS = {
    "five-class": (FiveClassEngine, SystemModel(n_nodes=N_NODES), PathModel.SIMPLE),
    "arrangement": (
        ArrangementEngine, SystemModel(n_nodes=N_NODES, n_compromised=2), PathModel.SIMPLE
    ),
    "cycle-c1": (CycleBatchEngine, SystemModel(n_nodes=N_NODES), PathModel.CYCLE_ALLOWED),
    "cycle-c2": (
        CycleBatchEngine,
        SystemModel(n_nodes=N_NODES, n_compromised=2),
        PathModel.CYCLE_ALLOWED,
    ),
    "topology": (
        TopologyEngine,
        SystemModel(n_nodes=N_NODES, topology=Topology.ring(N_NODES)),
        PathModel.SIMPLE,
    ),
}


class TestShardedWorkerEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGURATIONS))
    def test_worker_runs_the_engine_the_estimator_selects(self, name):
        """A pickled shard task rebuilds its engine from the configuration alone."""
        engine_class, model, path_model = ENGINE_CONFIGURATIONS[name]
        strategy = strategy_for(path_model)
        (task,) = ShardedBackend(workers=1, shards=1).plan(
            model, strategy, 3_000, rng=11
        )
        shard = _run_shard(pickle.loads(pickle.dumps(task)))
        # The estimator builds its own engine, not the one the shard cached.
        clear_engine_cache()
        estimator = BatchMonteCarlo(model, strategy)
        assert shard.engine_name == estimator.engine.name == engine_class.name
        assert shard.accumulator == estimator.run_accumulate(
            task.n_trials, rng=task.seed
        )


class TestChunking:
    """Every engine runs a budget in chunks of the one module constant."""

    def engine(self) -> FiveClassEngine:
        model = SystemModel(n_nodes=N_NODES, n_compromised=1)
        return FiveClassEngine(
            model=model,
            strategy=strategy_for(PathModel.SIMPLE),
            compromised=frozenset({0}),
        )

    @staticmethod
    def chunk_sizes(name, n_trials, monkeypatch) -> list[int]:
        """The chunk sizes one ``run_accumulate`` of the named engine draws."""
        engine_class, model, path_model = ENGINE_CONFIGURATIONS[name]
        engine = engine_class(
            model=model, strategy=strategy_for(path_model), compromised=model.compromised_nodes()
        )
        sizes: list[int] = []
        kernel = engine.accumulate_chunk

        def recording(chunk, generator):
            sizes.append(chunk)
            return kernel(chunk, generator)

        monkeypatch.setattr(engine, "accumulate_chunk", recording)
        assert engine.run_accumulate(n_trials, rng=1).n_trials == n_trials
        return sizes

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGURATIONS))
    def test_budget_splits_into_chunks_of_the_patched_constant(self, name, monkeypatch):
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 1_000)
        assert self.chunk_sizes(name, 2_005, monkeypatch) == [1_000, 1_000, 5]

    def test_one_constant_bounds_every_chunk(self, monkeypatch):
        chunk = engine_module.CHUNK_TRIALS
        assert self.chunk_sizes("five-class", chunk + 1, monkeypatch) == [chunk, 1]

    def test_chunk_size_is_not_an_option(self):
        model = SystemModel(n_nodes=N_NODES)
        with pytest.raises(TypeError):
            BatchMonteCarlo(model, strategy_for(PathModel.SIMPLE), chunk_trials=4_096)
        from repro.batch import get_backend

        with pytest.raises(TypeError):
            get_backend("batch", chunk_trials=4_096)

    def test_n_trials_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="n_trials"):
            self.engine().run_accumulate(0, rng=0)
