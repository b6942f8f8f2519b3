"""Tests for the ``TrialEngine`` protocol and its engine registry.

Two load-bearing contracts:

* **totality** — for every ``(path_model, C, receiver)`` combination in the
  supported domain, :func:`repro.batch.select_engine` returns an engine; no
  configuration silently falls through to a raise any more (the pre-protocol
  dispatcher rejected cycle paths with ``C != 1``);
* **extensibility** — :func:`repro.batch.register_engine` mirrors
  ``register_backend``: a user-registered engine is actually selected (latest
  registration wins on any domain its ``covers`` predicate claims) and serves
  ``BatchMonteCarlo`` runs end to end.
"""

from __future__ import annotations

import itertools

import pytest

from repro.batch import (
    ArrangementEngine,
    BatchAccumulator,
    BatchMonteCarlo,
    CycleBatchEngine,
    FiveClassEngine,
    TopologyEngine,
    TrialEngine,
    available_engines,
    get_engine,
    register_engine,
    select_engine,
)
from repro.batch import engine as engine_module
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

    def test_empty_registry_raises_a_configuration_error(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_ENGINES", {})
        model = SystemModel(n_nodes=N_NODES)
        with pytest.raises(ConfigurationError, match="no registered trial engine"):
            engine_module.select_engine(
                model, strategy_for(PathModel.SIMPLE), frozenset({0})
            )


class _ConstantEngine(TrialEngine):
    """A degenerate engine claiming the whole domain: every trial one class."""

    name = "constant"

    @classmethod
    def covers(cls, model, strategy, compromised) -> bool:
        return True

    def accumulate_chunk(self, n_trials, generator):
        generator.integers(0, 2, size=n_trials)  # honour the RNG protocol
        # Every "path" has length 1 and every trial lands in one class.
        return n_trials, {"constant-class": (n_trials, 1.5, False)}


class TestEngineRegistry:
    def test_registered_engine_is_selected_and_runs(self):
        register_engine(_ConstantEngine.name, _ConstantEngine)
        try:
            model = SystemModel(n_nodes=N_NODES)
            strategy = strategy_for(PathModel.SIMPLE)
            assert select_engine(
                model, strategy, model.compromised_nodes()
            ) is _ConstantEngine
            assert "constant" in available_engines()
            assert get_engine("constant") is _ConstantEngine
            # The dispatcher — and therefore every backend above it — uses it.
            estimator = BatchMonteCarlo(model, strategy)
            assert estimator.engine.name == "constant"
            report = estimator.run(500, rng=1)
            assert report.degree_bits == 1.5
            assert report.estimate.std_error == 0.0
            assert report.mean_path_length == 1.0
        finally:
            del engine_module._ENGINES[_ConstantEngine.name]

    def test_duplicate_registration_requires_overwrite(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(FiveClassEngine.name, _ConstantEngine)
        # overwrite=True replaces; restore the built-in afterwards.
        register_engine(FiveClassEngine.name, _ConstantEngine, overwrite=True)
        try:
            assert get_engine(FiveClassEngine.name) is _ConstantEngine
        finally:
            register_engine(
                FiveClassEngine.name, FiveClassEngine, overwrite=True
            )

    def test_unknown_engine_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown trial engine"):
            get_engine("no-such-engine")

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

    def test_sharded_plan_ships_the_selected_engine_to_workers(self):
        """The shard plan resolves the engine in the parent, not the worker.

        Workers rebuild the engine from the pickled class reference, so a
        user-registered engine shards correctly even though each spawn
        worker's registry only holds the built-ins.
        """
        import pickle

        from repro.batch.sharded import ShardedBackend, _run_shard

        register_engine(_ConstantEngine.name, _ConstantEngine)
        try:
            model = SystemModel(n_nodes=N_NODES)
            strategy = strategy_for(PathModel.SIMPLE)
            backend = ShardedBackend(workers=1, shards=2)
            tasks = backend.plan(model, strategy, 1_000, rng=3)
            assert all(task.engine is _ConstantEngine for task in tasks)
            # The worker path: round-trip the task through pickle (what the
            # spawn pool does) and run it without consulting the registry.
            task = pickle.loads(pickle.dumps(tasks[0]))
            shard = _run_shard(task)
            assert shard.engine_name == _ConstantEngine.name
            assert shard.n_trials == task.n_trials
            accumulator = shard.accumulator
            assert accumulator.classes == {
                "constant-class": (task.n_trials, 1.5, False)
            }
            report = backend.estimate(model, strategy, n_trials=1_000, rng=3)
            assert report.degree_bits == 1.5
        finally:
            del engine_module._ENGINES[_ConstantEngine.name]

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
