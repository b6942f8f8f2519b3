"""Tests for the sharded multiprocess backend (``repro.batch.sharded``).

The load-bearing properties:

* the shard plan is a pure function of ``(seed, shards)``: chunk sizes are
  balanced and positive, sub-seeds reproduce, and the merged report is
  bit-identical run to run;
* the worker *count* never changes results — it only sizes the pool — so a
  spawn-backed pool reproduces the inline (``workers=1``) report exactly;
* a block of at most one engine chunk runs in the parent even with a pool
  configured, so it never starts one, and its report is the pooled one;
* merged estimates keep the statistical contract of the single-process batch
  engine on both the C=1 closed-form domain and the C>1 exhaustive domain;
* the backend is reachable everywhere backends are: ``get_backend``, sweeps,
  ``estimate_anonymity``, and the ``repro-anon batch --backend sharded`` CLI
  round-trip.

A spawn pool costs ~a second of interpreter start-up per worker, so only the
tests about the pool start one, each with blocks of more than
:data:`~repro.batch.engine.CHUNK_TRIALS` trials (smaller blocks never reach
it); every other property is checked through the inline path, which runs the
identical shard code.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.sweep import fixed_length_sweep
from repro.batch import (
    BatchAccumulator,
    ShardedBackend,
    estimate_anonymity,
    get_backend,
    split_trials,
)
from repro.batch.engine import CHUNK_TRIALS
from repro.cli import main
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import Topology
from repro.distributions import FixedLength, GeometricLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.service import DistributionSpec, EstimateRequest, EstimationService
from repro.service.adaptive import AdaptiveScheduler
from repro.telemetry import activate

#: The smallest block the pool runs: one trial more than one engine chunk.
POOLED_TRIALS = CHUNK_TRIALS + 1


def _held_worker_cpus(hold: float) -> tuple[int, tuple[int, ...]]:
    """Pool task: hold this worker briefly, then report its pid and its CPUs."""
    time.sleep(hold)
    return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))


class TestSplitTrials:
    def test_balanced_and_exact(self):
        assert split_trials(10, 3) == (4, 3, 3)
        assert split_trials(9, 3) == (3, 3, 3)
        assert split_trials(1, 1) == (1,)

    def test_more_shards_than_trials_drops_empty_chunks(self):
        assert split_trials(2, 5) == (1, 1)

    def test_rejects_bad_budgets(self):
        with pytest.raises(ConfigurationError):
            split_trials(0, 2)
        with pytest.raises(ConfigurationError):
            split_trials(10, 0)


class TestShardPlanDeterminism:
    def test_plan_is_a_pure_function_of_seed_and_shards(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))
        backend = ShardedBackend(workers=1, shards=3)
        first = backend.plan(model, strategy, 10_000, rng=42)
        second = backend.plan(model, strategy, 10_000, rng=42)
        assert [task.seed for task in first] == [task.seed for task in second]
        assert [task.n_trials for task in first] == [task.n_trials for task in second]
        assert sum(task.n_trials for task in first) == 10_000

    def test_fixed_seed_and_shards_reproduce_the_report(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        backend = ShardedBackend(workers=1, shards=4)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))
        first = backend.estimate(model, strategy, n_trials=8_000, rng=11)
        second = backend.estimate(model, strategy, n_trials=8_000, rng=11)
        assert first.estimate == second.estimate
        assert first.mean_path_length == second.mean_path_length
        assert first.identification_rate == second.identification_rate

    def test_shard_count_changes_the_stream_but_not_the_statistics(self):
        model = SystemModel(n_nodes=15, n_compromised=1)
        strategy = PathSelectionStrategy("F(3)", FixedLength(3))
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(3))
        for shards in (1, 2, 5):
            report = ShardedBackend(workers=1, shards=shards).estimate(
                model, strategy, n_trials=30_000, rng=9
            )
            assert report.n_trials == 30_000
            assert report.estimate.contains(exact, slack=0.01)

    def test_worker_pool_reproduces_the_inline_report(self):
        """workers only size the pool: a spawn pool matches workers=1 exactly."""
        model = SystemModel(n_nodes=20, n_compromised=1)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))
        n_trials = CHUNK_TRIALS + 8_000
        inline = ShardedBackend(workers=1, shards=4).estimate(
            model, strategy, n_trials=n_trials, rng=42
        )
        with ShardedBackend(workers=2, shards=4) as backend:
            pooled = backend.estimate(model, strategy, n_trials=n_trials, rng=42)
            assert backend._pool is not None  # the block ran in the pool
        assert pooled.estimate == inline.estimate
        assert pooled.mean_path_length == inline.mean_path_length
        assert pooled.identification_rate == inline.identification_rate

    def test_warm_pool_reproduces_the_inline_adaptive_run(self):
        """Workers that served other runs first still return the inline bits."""
        model = SystemModel(n_nodes=20, n_compromised=2)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))

        def adaptive(backend):
            return AdaptiveScheduler(
                backend=backend,
                precision=None,
                block_size=POOLED_TRIALS,
                max_trials=4 * POOLED_TRIALS,
            ).run(model, strategy, rng=7)

        inline = adaptive(ShardedBackend(workers=1, shards=2))
        with ShardedBackend(workers=2, shards=2) as backend:
            # Another configuration, then this one at another seed, so the
            # workers' engines are warm with classes the run did not draw.
            backend.estimate(
                SystemModel(n_nodes=15, n_compromised=1),
                PathSelectionStrategy("F(3)", FixedLength(3)),
                n_trials=POOLED_TRIALS,
                rng=1,
            )
            backend.estimate(model, strategy, n_trials=POOLED_TRIALS, rng=99)
            with activate() as registry:
                pooled = adaptive(backend)
            assert backend._pool is not None
        assert pooled.report == inline.report
        assert pooled.trajectory == inline.trajectory
        shards = registry.counter("sharded_shards_total", engine="arrangement").value
        reuses = registry.counter(
            "sharded_engine_reuses_total", engine="arrangement"
        ).value
        inline_blocks = registry.counter(
            "sharded_inline_blocks_total", engine="arrangement"
        ).value
        assert shards == 8
        assert inline_blocks == 0  # every round ran in the pool
        assert reuses >= shards - 2  # at most one build per worker

    def test_one_chunk_blocks_run_inline_and_larger_ones_in_the_pool(self):
        """The rule's edge: CHUNK_TRIALS trials stay in the parent, one more pools.

        Both match ``workers=1`` bit for bit, so where a block runs moves
        no report.
        """
        model = SystemModel(n_nodes=20, n_compromised=2)
        strategy = PathSelectionStrategy("U(2, 8)", UniformLength(2, 8))
        for n_trials, pooled in ((CHUNK_TRIALS, False), (POOLED_TRIALS, True)):
            reference = ShardedBackend(workers=1, shards=2).estimate(
                model, strategy, n_trials=n_trials, rng=5
            )
            with ShardedBackend(workers=2, shards=2) as backend:
                report = backend.estimate(model, strategy, n_trials=n_trials, rng=5)
                assert (backend._pool is not None) is pooled
            assert report == reference

    def test_adaptive_service_run_on_default_blocks_never_spawns_the_pool(self):
        """An adaptive request on 10 000-trial blocks runs wholly in the parent."""

        def request(workers):
            return EstimateRequest(
                n_nodes=50,
                n_compromised=2,
                distribution=DistributionSpec("uniform", {"low": 2, "high": 8}),
                precision=0.005,
                seed=3,
                backend="sharded",
                backend_options=(("shards", 2), ("workers", workers)),
            )

        with EstimationService() as service:
            one_worker = service.estimate(request(1))
        with EstimationService() as service:
            two_workers = service.estimate(request(2))
            assert service._backend(request(2))._pool is None
        assert two_workers.rounds > 1
        assert two_workers.report == one_worker.report
        assert two_workers.trajectory == one_worker.trajectory

    def test_pooled_and_inline_reports_agree_on_every_engine(self):
        """Five-class, arrangement, cycle and topology blocks: pool == parent."""
        configurations = [
            (SystemModel(n_nodes=30, n_compromised=1), UniformLength(1, 12), PathModel.SIMPLE),
            (
                SystemModel(n_nodes=30, n_compromised=3, adversary=AdversaryModel.POSITION_AWARE),
                UniformLength(2, 8),
                PathModel.SIMPLE,
            ),
            (
                SystemModel(n_nodes=30, n_compromised=2, path_model=PathModel.CYCLE_ALLOWED),
                UniformLength(1, 6),
                PathModel.CYCLE_ALLOWED,
            ),
            (
                SystemModel(n_nodes=9, n_compromised=1, topology=Topology.star(9)),
                UniformLength(1, 3),
                PathModel.SIMPLE,
            ),
        ]
        with ShardedBackend(workers=2, shards=3) as backend:
            for model, distribution, path_model in configurations:
                strategy = PathSelectionStrategy(
                    distribution.name, distribution, path_model=path_model
                )
                for n_trials in (CHUNK_TRIALS, POOLED_TRIALS + 2):
                    inline = ShardedBackend(workers=1, shards=3).estimate(
                        model, strategy, n_trials=n_trials, rng=17
                    )
                    pooled = backend.estimate(model, strategy, n_trials=n_trials, rng=17)
                    assert pooled == inline
            assert backend._pool is not None


class TestAccumulatorMerge:
    def test_merge_sums_counts_and_lengths(self):
        a = BatchAccumulator(
            n_trials=3, length_sum=9, classes={1: (3, 0.5, False)}
        )
        b = BatchAccumulator(
            n_trials=2, length_sum=4, classes={1: (1, 0.5, False), 2: (1, 0.0, True)}
        )
        merged = BatchAccumulator.merge([a, b])
        assert merged.n_trials == 5
        assert merged.length_sum == 13
        assert merged.classes == {1: (4, 0.5, False), 2: (1, 0.0, True)}
        report = merged.report(SystemModel(n_nodes=10), "F(3)")
        assert report.mean_path_length == pytest.approx(13 / 5)
        assert report.identification_rate == pytest.approx(1 / 5)
        assert report.degree_bits == pytest.approx(4 * 0.5 / 5)

    def test_merge_rejects_inconsistent_entropies(self):
        a = BatchAccumulator(n_trials=1, length_sum=1, classes={1: (1, 0.5, False)})
        b = BatchAccumulator(n_trials=1, length_sum=1, classes={1: (1, 0.7, False)})
        with pytest.raises(ConfigurationError, match="disagree"):
            BatchAccumulator.merge([a, b])

    def test_merge_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            BatchAccumulator.merge([])


class TestShardedStatistics:
    @pytest.mark.parametrize(
        "distribution",
        [
            FixedLength(5),
            UniformLength(2, 8),
            GeometricLength(p_forward=0.75, minimum=1, max_length=19),
        ],
        ids=lambda d: d.name,
    )
    def test_ci_covers_closed_form_at_c1(self, distribution):
        model = SystemModel(n_nodes=20, n_compromised=1)
        exact = AnonymityAnalyzer(model).anonymity_degree(distribution)
        report = estimate_anonymity(
            model,
            distribution,
            n_trials=30_000,
            rng=202,
            backend="sharded",
            workers=1,
            shards=4,
        )
        assert report.estimate.contains(exact, slack=0.01)
        assert report.n_trials == 30_000

    def test_ci_covers_exhaustive_at_c2(self):
        model = SystemModel(n_nodes=7, n_compromised=2)
        exact = ExhaustiveAnalyzer(model).anonymity_degree(UniformLength(1, 4))
        report = estimate_anonymity(
            model,
            UniformLength(1, 4),
            n_trials=30_000,
            rng=13,
            backend="sharded",
            workers=1,
            shards=3,
        )
        assert report.estimate.contains(exact, slack=0.01)


class TestShardedWiring:
    def test_registry_exposes_and_configures_the_backend(self):
        backend = get_backend("sharded", workers=2, shards=6)
        assert isinstance(backend, ShardedBackend)
        assert backend.workers == 2
        assert backend.shards == 6

    def test_invalid_worker_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=1, shards=0)
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=1_000)

    def test_sharded_shards_2_5(self):
        # It used to fail on the first estimate with numpy's TypeError.
        with pytest.raises(ConfigurationError, match="shards"):
            get_backend("sharded", workers=1, shards=2.5)

    def test_sharded_workers_2_0(self):
        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("sharded", workers=2.0)

    def test_sharded_workers_true(self):
        # It used to run as one worker.
        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("sharded", workers=True)

    @pytest.mark.parametrize("n_trials", [0, 2.5, True])
    @pytest.mark.parametrize(
        "backend, options",
        [("batch", {}), ("sharded", {"workers": 1})],
        ids=["batch", "sharded"],
    )
    def test_trial_counts_must_be_positive_integers(self, backend, options, n_trials):
        # 2.5 and True used to reach numpy (a bare TypeError), and True ran
        # one sharded trial.
        model = SystemModel(n_nodes=10, n_compromised=1)
        with pytest.raises(ConfigurationError, match="n_trials"):
            estimate_anonymity(
                model,
                UniformLength(2, 5),
                n_trials=n_trials,
                rng=1,
                backend=backend,
                **options,
            )

    def test_estimate_anonymity_forwards_options(self):
        model = SystemModel(n_nodes=12, n_compromised=1)
        strategy = PathSelectionStrategy("F(2)", FixedLength(2))
        report = estimate_anonymity(
            model, strategy, n_trials=10_000, rng=1,
            backend="sharded", workers=1, shards=2,
        )
        exact = AnonymityAnalyzer(model).anonymity_degree(FixedLength(2))
        assert report.estimate.contains(exact, slack=0.01)

    def test_sweeps_accept_backend_options(self):
        model = SystemModel(n_nodes=15, n_compromised=1)
        reference = fixed_length_sweep(model, [2, 5])
        sampled = fixed_length_sweep(
            model,
            [2, 5],
            backend="sharded",
            n_trials=20_000,
            rng=77,
            backend_options={"workers": 1, "shards": 3},
        )
        for exact, estimated in zip(
            reference.series[0].values, sampled.series[0].values
        ):
            assert estimated == pytest.approx(exact, abs=0.05)

    def test_sweeps_reject_options_on_the_exact_backend(self):
        model = SystemModel(n_nodes=15, n_compromised=1)
        with pytest.raises(ConfigurationError, match="sampling backends"):
            fixed_length_sweep(
                model, [2], backend_options={"workers": 8}
            )

    def test_cli_round_trip(self, capsys):
        exit_code = main(
            [
                "batch",
                "--n", "15",
                "--strategy", "fixed",
                "--length", "3",
                "--trials", "8000",
                "--seed", "4",
                "--backend", "sharded",
                "--workers", "1",
                "--shards", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "backend" in captured and "sharded" in captured
        assert "closed form inside the 95% CI" in captured
        assert "PASS" not in captured  # key-points table, not checks

    def test_cli_rejects_workers_on_other_backends(self, capsys):
        exit_code = main(
            ["batch", "--n", "15", "--trials", "100", "--backend", "batch",
             "--workers", "4"]
        )
        assert exit_code == 2
        assert "sharded" in capsys.readouterr().err

    def test_cli_rejects_exact_backend_off_its_domain(self, capsys):
        exit_code = main(
            ["batch", "--n", "15", "--compromised", "2",
             "--backend", "exact", "--trials", "100"]
        )
        assert exit_code == 2
        assert "C=1 domain" in capsys.readouterr().err

    def test_pool_is_reused_and_closable(self):
        model = SystemModel(n_nodes=15, n_compromised=1)
        strategy = PathSelectionStrategy("F(3)", FixedLength(3))
        with ShardedBackend(workers=2, shards=2) as backend:
            first = backend.estimate(model, strategy, n_trials=POOLED_TRIALS, rng=3)
            pool = backend._pool
            assert pool is not None  # the block ran in the pool
            second = backend.estimate(model, strategy, n_trials=POOLED_TRIALS, rng=3)
            assert backend._pool is pool  # one pool across calls
            assert first.estimate == second.estimate
        assert backend._pool is None  # context exit released it

    def test_one_worker_per_cpu_binds_each_worker_to_its_own_cpu(self):
        cpus = sorted(os.sched_getaffinity(0))
        bound: dict[int, tuple[int, ...]] = {}
        with ShardedBackend(workers=max(2, len(cpus))) as backend:
            pool = backend._ensure_pool()
            for _ in range(100):
                bound.update(
                    pool.map(_held_worker_cpus, [0.05] * backend.workers, timeout=60)
                )
                if len(bound) == backend.workers:
                    break
        if backend.workers == len(cpus):
            assert sorted(bound.values()) == [(cpu,) for cpu in cpus]
        else:  # more workers than CPUs: placement stays with the scheduler
            assert sorted(bound.values()) == [tuple(cpus)] * backend.workers

    def test_cli_round_trip_multi_compromised(self, capsys):
        exit_code = main(
            [
                "batch",
                "--n", "12",
                "--compromised", "2",
                "--strategy", "uniform",
                "--low", "1",
                "--high", "4",
                "--trials", "8000",
                "--seed", "4",
                "--backend", "sharded",
                "--workers", "1",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "C=2" in captured
        # No closed form exists off the C=1 domain; the CLI must not print one.
        assert "closed-form H*" not in captured
