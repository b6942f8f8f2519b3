"""Tests for the telemetry subsystem: metrics, tracing, exposition, and the
instrumentation of the estimation stack.

Determinism is load-bearing here: a fake clock injected into the registry
must make every duration — span timings, engine chunk timings — exact, so
the snapshot of an instrumented run is asserted bit-for-bit, not "roughly".
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.batch import BatchMonteCarlo
from repro.batch import engine as engine_module
from repro.batch.engine import select_engine
from repro.batch.multiclass import ORIGIN_KEY, ClassScoreTable
from repro.batch.sharded import ShardedBackend
from repro.core.model import PathModel, SystemModel
from repro.distributions import UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.service import (
    DistributionSpec,
    EstimateRequest,
    EstimationService,
    ResultCache,
)
from repro.service.adaptive import (
    STOP_BUDGET,
    STOP_EXACT,
    STOP_PRECISION,
    AdaptiveScheduler,
)
from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    activate,
    current_span_path,
    get_registry,
    load_snapshot,
    render_json,
    render_prometheus,
    render_span_tree,
    render_text,
    set_registry,
    trace_span,
    write_snapshot,
)


class FakeClock:
    """A deterministic monotonic clock: every read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture(autouse=True)
def _isolated_registry():
    """Every test starts and ends on the null registry."""
    set_registry(None)
    yield
    set_registry(None)


def _strategy() -> PathSelectionStrategy:
    distribution = UniformLength(2, 8)
    return PathSelectionStrategy(name=distribution.name, distribution=distribution)


def _request(**overrides) -> EstimateRequest:
    parameters = dict(
        n_nodes=40,
        distribution=DistributionSpec.from_distribution(UniformLength(2, 8)),
        precision=0.05,
        block_size=5_000,
        max_trials=50_000,
        seed=11,
    )
    parameters.update(overrides)
    return EstimateRequest(**parameters)


class TestMetricsPrimitives:
    def test_counter_accumulates_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2.0

    def test_histogram_counts_sums_and_buckets(self):
        histogram = MetricsRegistry().histogram("latency", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 55.5
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.mean == 18.5
        assert histogram.bucket_counts() == ((1.0, 1), (10.0, 2), (float("inf"), 3))

    def test_same_name_different_labels_are_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("trials_total", engine="five-class").inc(10)
        registry.counter("trials_total", engine="cycle").inc(20)
        assert registry.counter("trials_total", engine="five-class").value == 10
        assert registry.counter("trials_total", engine="cycle").value == 20

    def test_handles_are_cached_per_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("hits", tier="memory") is registry.counter(
            "hits", tier="memory"
        )
        assert registry.counter("hits", tier="memory") is not registry.counter(
            "hits", tier="disk"
        )

    def test_invalid_metric_names_are_rejected(self):
        registry = MetricsRegistry()
        for name in ("Bad-Name", "9starts_with_digit", "spaced name", ""):
            with pytest.raises(ConfigurationError, match="must match"):
                registry.counter(name)

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("zeta_total").inc()
        registry.counter("alpha_total").inc(2)
        registry.gauge("level").set(7)
        snapshot = registry.snapshot()
        assert [entry["name"] for entry in snapshot["counters"]] == [
            "alpha_total",
            "zeta_total",
        ]
        json.dumps(snapshot)  # must be serialisable as-is

    def test_reset_drops_metrics_and_spans(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("n_total").inc()
        with trace_span("stage", registry=registry):
            pass
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [] and snapshot["spans"] == []


class TestRegistryActivation:
    def test_default_is_the_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not get_registry().enabled

    def test_null_registry_handles_are_shared_no_ops(self):
        null = NullRegistry()
        assert null.counter("a") is null.counter("b")
        null.counter("a").inc()
        null.gauge("g").set(5)
        null.histogram("h").observe(1.0)
        assert null.snapshot()["counters"] == []

    def test_activate_scopes_collection_and_restores(self):
        with activate() as registry:
            assert get_registry() is registry
            registry.counter("inside_total").inc()
        assert get_registry() is NULL_REGISTRY

    def test_activate_restores_previous_registry_when_nested(self):
        outer = MetricsRegistry()
        set_registry(outer)
        with activate() as inner:
            assert get_registry() is inner
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        first = MetricsRegistry()
        assert set_registry(first) is NULL_REGISTRY
        assert set_registry(None) is first


class TestTracing:
    def test_nested_spans_build_slash_paths(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with activate(registry):
            with trace_span("service.estimate") as outer:
                assert current_span_path() == "service.estimate"
                with trace_span("adaptive.run"):
                    assert (
                        current_span_path() == "service.estimate/adaptive.run"
                    )
                outer.annotate(outcome="computed")
        assert current_span_path() == ""
        paths = [record.path for record in registry.spans]
        # Children complete (and therefore record) before their parent.
        assert paths == ["service.estimate/adaptive.run", "service.estimate"]

    def test_fake_clock_makes_durations_exact(self):
        clock = FakeClock(step=1.0)
        registry = MetricsRegistry(clock=clock)
        with activate(registry):
            with trace_span("outer"):
                with trace_span("inner"):
                    pass
        by_name = {record.name: record for record in registry.spans}
        # Clock reads: outer start=0, inner start=1, inner end=2, outer end=3.
        assert by_name["inner"].duration == 1.0
        assert by_name["outer"].duration == 3.0
        histogram = registry.histogram("span_seconds", span="outer")
        assert histogram.count == 1 and histogram.sum == 3.0

    def test_span_records_attributes_and_survives_exceptions(self):
        registry = MetricsRegistry(clock=FakeClock())
        with activate(registry):
            with pytest.raises(RuntimeError):
                with trace_span("failing", digest="abc123"):
                    raise RuntimeError("stage blew up")
        (record,) = registry.spans
        assert record.path == "failing"
        assert record.attributes == (("digest", "abc123"),)
        assert current_span_path() == ""  # the stack unwound

    def test_disabled_tracing_is_a_shared_no_op(self):
        with trace_span("anything", key="value") as span:
            span.annotate(more="attrs")
            assert span.attribute_items() == ()
        assert NULL_REGISTRY.spans == ()

    def test_span_log_is_bounded_but_aggregates_are_not(self):
        registry = MetricsRegistry(clock=FakeClock(), max_spans=2)
        with activate(registry):
            for index in range(5):
                with trace_span("stage"):
                    pass
        assert len(registry.spans) == 2
        assert registry.histogram("span_seconds", span="stage").count == 5

    def test_concurrent_threads_trace_independently(self):
        registry = MetricsRegistry(clock=FakeClock())
        seen: dict[str, str] = {}
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            with trace_span(name, registry=registry):
                barrier.wait(timeout=5)
                seen[name] = current_span_path()

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Neither thread saw the other's span as a parent.
        assert seen == {"a": "a", "b": "b"}


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("cache_hits_total", tier="memory").inc(3)
        registry.gauge("service_inflight").set(1)
        registry.histogram("chunk_seconds", buckets=(0.1, 1.0)).observe(0.5)
        with activate(registry):
            with trace_span("service.estimate", digest="beef"):
                pass
        return registry

    def test_render_json_round_trips(self):
        registry = self._populated()
        decoded = json.loads(render_json(registry))
        assert decoded == registry.snapshot()

    def test_prometheus_exposition_format(self):
        text = render_prometheus(self._populated())
        assert '# TYPE repro_cache_hits_total counter' in text
        assert 'repro_cache_hits_total{tier="memory"} 3' in text
        assert 'repro_service_inflight 1' in text
        # Cumulative buckets with a final +Inf equal to the count.
        assert 'repro_chunk_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_chunk_seconds_bucket{le="1"} 1' in text
        assert 'repro_chunk_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_chunk_seconds_count 1' in text
        assert 'repro_span_seconds_bucket{le="+Inf",span="service.estimate"} 1' in text

    def test_render_text_and_span_tree(self):
        registry = self._populated()
        table = render_text(registry)
        assert "cache_hits_total{tier=memory}" in table and "3" in table
        tree = render_span_tree(registry)
        assert "service.estimate" in tree and "digest=beef" in tree
        assert render_text(MetricsRegistry()) == "(no metrics recorded)"
        assert render_span_tree(MetricsRegistry()) == "(no spans recorded)"

    def test_snapshot_files_round_trip(self, tmp_path):
        registry = self._populated()
        path = write_snapshot(tmp_path / "metrics.json", registry)
        assert load_snapshot(path) == registry.snapshot()
        bad = tmp_path / "not_a_snapshot.json"
        bad.write_text("{}")
        with pytest.raises(ValueError, match="not a telemetry snapshot"):
            load_snapshot(bad)


class TestEngineInstrumentation:
    def test_engine_reports_chunks_trials_and_exact_timings(self, monkeypatch):
        model = SystemModel(n_nodes=30, n_compromised=1)
        strategy = _strategy()
        compromised = frozenset(model.compromised_nodes())
        engine = select_engine(model, strategy, compromised)(
            model=model, strategy=strategy, compromised=compromised
        )
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", 500)
        clock = FakeClock(step=0.25)
        with activate(MetricsRegistry(clock=clock)) as registry:
            engine.run_accumulate(2_000, rng=5)
        name = engine.name
        assert registry.counter("engine_chunks_total", engine=name).value == 4
        assert registry.counter("engine_trials_total", engine=name).value == 2_000
        timings = registry.histogram("engine_chunk_seconds", engine=name)
        # Two clock reads per chunk under a 0.25-step fake clock: exactly
        # 0.25s per chunk, bit-deterministic.
        assert timings.count == 4
        assert timings.sum == 1.0
        assert timings.min == timings.max == 0.25

    def test_class_pricing_counts_and_times_misses_only(self):
        model = SystemModel(n_nodes=30, n_compromised=2)
        table = ClassScoreTable(model, UniformLength(2, 8))
        first, second = table.class_key(3, (1,)), table.class_key(4, (2, 3))
        keys = [first, first, second, ORIGIN_KEY, second]
        with activate(MetricsRegistry(clock=FakeClock(step=0.25))) as registry:
            for key in keys:
                table.score(key)
        # Two distinct classes missed; the repeats and the pre-seeded origin
        # class are hits and read no clock.
        priced = registry.counter("classes_priced_total", engine="arrangement")
        assert priced.value == 2
        timings = registry.histogram("class_price_seconds", engine="arrangement")
        assert timings.count == 2
        assert timings.min == timings.max == 0.25

    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_engines_label_class_pricing_with_their_name(self, path_model):
        model = SystemModel(n_nodes=30, n_compromised=2, path_model=path_model)
        strategy = PathSelectionStrategy(
            "U(2,8)", UniformLength(2, 8), path_model=path_model
        )
        compromised = model.compromised_nodes()
        engine = select_engine(model, strategy, compromised)(
            model=model, strategy=strategy, compromised=compromised
        )
        with activate(MetricsRegistry(clock=FakeClock(step=0.25))) as registry:
            accumulator = engine.run_accumulate(2_000, rng=5)
            engine.run_accumulate(2_000, rng=5)  # every class already priced
        if path_model is PathModel.SIMPLE:
            assert engine.name == "arrangement"
            misses = len(accumulator.classes) - (ORIGIN_KEY in accumulator.classes)
        else:
            assert engine.name == "cycle"
            misses = engine._score_table.n_classes
        assert misses > 0
        priced = registry.counter("classes_priced_total", engine=engine.name)
        assert priced.value == misses
        timings = registry.histogram("class_price_seconds", engine=engine.name)
        assert timings.count == misses
        assert timings.min == timings.max == 0.25

    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_cold_path_spans_time_construction_and_each_price(self, path_model):
        model = SystemModel(n_nodes=30, n_compromised=2, path_model=path_model)
        strategy = PathSelectionStrategy(
            "U(2,8)", UniformLength(2, 8), path_model=path_model
        )
        with activate(MetricsRegistry(clock=FakeClock(step=0.25))) as registry:
            estimator = BatchMonteCarlo(model, strategy)
            estimator.run_accumulate(2_000, rng=5)
        name = estimator.engine.name
        labels = (("engine", name),)
        (construct,) = [r for r in registry.spans if r.name == "engine.construct"]
        # Nothing inside construction reads the clock: one step.
        assert (construct.path, construct.attributes) == ("engine.construct", labels)
        assert construct.duration == 0.25
        prices = [r for r in registry.spans if r.name == "engine.price"]
        priced = registry.counter("classes_priced_total", engine=name).value
        assert len(prices) == priced > 0
        # Each price span wraps the two reads of class_price_seconds.
        for record in prices:
            assert (record.path, record.attributes) == ("engine.price", labels)
            assert record.duration == 0.75
        timings = registry.histogram("class_price_seconds", engine=name)
        assert timings.min == timings.max == 0.25

    def test_uninstrumented_run_is_bit_identical_to_instrumented(self):
        model = SystemModel(n_nodes=30, n_compromised=1)
        strategy = _strategy()
        compromised = frozenset(model.compromised_nodes())
        factory = select_engine(model, strategy, compromised)
        engine = factory(model=model, strategy=strategy, compromised=compromised)
        bare = engine.run_accumulate(2_000, rng=5)
        with activate():
            instrumented = engine.run_accumulate(2_000, rng=5)
        assert bare == instrumented

    def test_batch_and_sharded_report_the_same_trial_totals(self):
        model = SystemModel(n_nodes=30, n_compromised=1)
        strategy = _strategy()
        n_trials = 2_000

        compromised = frozenset(model.compromised_nodes())
        engine = select_engine(model, strategy, compromised)(
            model=model, strategy=strategy, compromised=compromised
        )
        with activate() as single_registry:
            engine.run_accumulate(n_trials, rng=3)

        backend = ShardedBackend(workers=1, shards=2)
        with activate() as sharded_registry:
            backend.estimate(model, strategy, n_trials=n_trials, rng=3)

        name = engine.name
        assert (
            single_registry.counter("engine_trials_total", engine=name).value
            == n_trials
        )
        # Worker processes carry their timings back on the shard results; the
        # parent's registry sees every shard and the full trial budget.
        assert (
            sharded_registry.counter("sharded_trials_total", engine=name).value
            == n_trials
        )
        assert (
            sharded_registry.counter("sharded_shards_total", engine=name).value == 2
        )
        timings = sharded_registry.histogram("sharded_shard_seconds", engine=name)
        assert timings.count == 2
        assert timings.sum > 0.0

    def test_estimators_of_one_configuration_build_once_then_reuse(self):
        model = SystemModel(n_nodes=30, n_compromised=2)
        with activate(MetricsRegistry(clock=FakeClock(step=0.25))) as registry:
            first = BatchMonteCarlo(model, _strategy())
            second = BatchMonteCarlo(model, _strategy())
        assert second.engine is first.engine
        name = first.engine.name
        assert registry.counter("engine_builds_total", engine=name).value == 1
        assert registry.counter("engine_reuses_total", engine=name).value == 1
        assert [r.name for r in registry.spans] == ["engine.construct"]

    def test_sharded_tasks_report_engine_reuse_and_construction(self):
        model = SystemModel(n_nodes=30, n_compromised=2)
        scheduler = AdaptiveScheduler(
            backend=ShardedBackend(workers=1, shards=2),
            precision=None,
            block_size=1_000,
            max_trials=3_000,
        )
        with activate(MetricsRegistry(clock=FakeClock(step=0.25))) as registry:
            run = scheduler.run(model, _strategy(), rng=4)
        assert run.rounds == 3
        name = "arrangement"
        assert registry.counter("sharded_shards_total", engine=name).value == 6
        # The first task builds the engine; the other five reuse it.
        assert registry.counter("sharded_engine_reuses_total", engine=name).value == 5
        assert registry.histogram("sharded_construct_seconds", engine=name).count == 6

    def test_inline_blocks_are_counted_and_pooled_ones_are_not(self):
        """A one-chunk block runs in the parent and counts; a two-chunk one pools."""
        model = SystemModel(n_nodes=30, n_compromised=2)
        one_chunk = engine_module.CHUNK_TRIALS
        with ShardedBackend(workers=2, shards=2) as backend:
            with activate() as registry:
                backend.estimate(model, _strategy(), n_trials=one_chunk, rng=2)
            inline = registry.counter("sharded_inline_blocks_total", engine="arrangement")
            assert inline.value == 1
            assert backend._pool is None
            with activate() as registry:
                backend.estimate(model, _strategy(), n_trials=2 * one_chunk, rng=2)
            assert backend._pool is not None
        assert registry.counter("sharded_shards_total", engine="arrangement").value == 2
        assert registry.counter("sharded_inline_blocks_total", engine="arrangement").value == 0


class TestCacheInstrumentation:
    def test_miss_store_and_both_hit_tiers_are_counted(self, tmp_path):
        request = _request()
        with activate() as registry:
            with EstimationService(cache_dir=tmp_path) as service:
                service.estimate(request)  # miss + compute + store
                service.estimate(request)  # memory hit
            with EstimationService(cache_dir=tmp_path) as fresh:
                fresh.estimate(request)  # disk hit (fresh memory tier)
        assert registry.counter("cache_misses_total").value == 1
        assert registry.counter("cache_hits_total", tier="memory").value == 1
        assert registry.counter("cache_hits_total", tier="disk").value == 1
        assert registry.counter("cache_stores_total", tier="memory").value == 1
        assert registry.counter("cache_stores_total", tier="disk").value == 1

    def test_disk_write_failure_is_counted_not_raised(self, tmp_path):
        from repro.service.cache import CachedEstimate

        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache directory should go")
        cache = ResultCache(cache_dir=blocker)  # mkdir will fail: not a dir
        request = _request()
        scheduler = AdaptiveScheduler(
            backend="batch", precision=None, block_size=1_000, max_trials=1_000
        )
        run = scheduler.run(request.model(), request.strategy(), rng=1)
        with activate() as registry:
            cache.put(
                request,
                CachedEstimate(
                    report=run.report,
                    rounds=run.rounds,
                    converged=run.converged,
                    stop_reason=run.stop_reason,
                ),
            )
        assert registry.counter("cache_store_failures_total").value == 1
        assert registry.counter("cache_stores_total", tier="memory").value == 1
        assert cache.stats().write_failures == 1


class TestAdaptiveInstrumentation:
    def test_stop_reason_precision_with_counters_and_history(self):
        scheduler = AdaptiveScheduler(
            backend="batch", precision=0.1, block_size=5_000, max_trials=100_000
        )
        with activate() as registry:
            run = scheduler.run(
                SystemModel(n_nodes=40, n_compromised=1), _strategy(), rng=2
            )
        assert run.stop_reason == STOP_PRECISION
        assert run.converged
        assert run.convergence_history == run.trajectory
        assert run.convergence_history[-1][1] <= 0.1
        assert registry.counter(
            "adaptive_stops_total", reason=STOP_PRECISION
        ).value == 1
        assert registry.counter("adaptive_rounds_total").value == run.rounds

    def test_stop_reason_budget_when_precision_unreachable(self):
        scheduler = AdaptiveScheduler(
            backend="batch", precision=1e-9, block_size=1_000, max_trials=3_000
        )
        with activate() as registry:
            run = scheduler.run(
                SystemModel(n_nodes=40, n_compromised=1), _strategy(), rng=2
            )
        assert run.stop_reason == STOP_BUDGET
        assert not run.converged
        assert run.n_trials == 3_000
        assert registry.counter(
            "adaptive_stops_total", reason=STOP_BUDGET
        ).value == 1

    def test_stop_reason_exact_backend(self):
        run = AdaptiveScheduler(backend="exact").run(
            SystemModel(n_nodes=40, n_compromised=1), _strategy(), rng=0
        )
        assert run.stop_reason == STOP_EXACT
        assert run.converged and run.convergence_history == ()

    def test_adaptive_run_records_a_span_with_stop_metadata(self):
        scheduler = AdaptiveScheduler(
            backend="batch", precision=0.1, block_size=5_000, max_trials=50_000
        )
        with activate(MetricsRegistry(clock=FakeClock())) as registry:
            scheduler.run(
                SystemModel(n_nodes=40, n_compromised=1), _strategy(), rng=2
            )
        (record,) = [r for r in registry.spans if r.name == "adaptive.run"]
        attributes = dict(record.attributes)
        assert attributes["backend"] == "batch"
        assert attributes["stop_reason"] == STOP_PRECISION


class TestServiceInstrumentation:
    def test_requests_spans_and_inflight_return_to_zero(self):
        request = _request()
        with activate() as registry:
            with EstimationService() as service:
                service.estimate(request)
                service.estimate(request)
        assert registry.counter("service_requests_total").value == 2
        assert registry.gauge("service_inflight").value == 0
        estimate_spans = [
            r for r in registry.spans if r.name == "service.estimate"
        ]
        assert len(estimate_spans) == 2
        outcomes = sorted(
            dict(record.attributes)["outcome"] for record in estimate_spans
        )
        assert outcomes == ["cache_hit", "computed"]
        digest = request.digest()[:16]
        assert all(
            dict(record.attributes)["digest"] == digest
            for record in estimate_spans
        )

    def test_single_flight_dedup_is_counted(self):
        request = _request(max_trials=200_000, precision=1e-6, block_size=50_000)
        release = threading.Event()
        entered = threading.Event()

        class SlowCache(ResultCache):
            def get(self, digest):
                result = super().get(digest)
                if result is None:
                    entered.set()
                    release.wait(timeout=10)
                return result

        with activate() as registry:
            with EstimationService() as service, ThreadPoolExecutor(max_workers=2) as pool:
                service._cache = SlowCache()
                first = pool.submit(service.estimate, request)
                assert entered.wait(timeout=10)
                # The second identical request lands while the first computes.
                entered.clear()
                second = pool.submit(service.estimate, request)
                assert entered.wait(timeout=10)
                release.set()
                results = [first.result(60), second.result(60)]
        assert registry.counter("service_dedup_hits_total").value == 1
        assert {result.from_cache for result in results} == {True, False}
        # Coalesced onto one computation: bit-identical reports.
        assert results[0].report == results[1].report

    def test_stop_reason_propagates_to_service_result(self):
        request = _request(precision=1e-9, max_trials=5_000, block_size=1_000)
        with EstimationService() as service:
            result = service.estimate(request)
        assert result.stop_reason == STOP_BUDGET
        assert result.convergence_history == result.trajectory
        assert len(result.convergence_history) == 5
        assert result.half_width > 0.0


class TestCliObservability:
    def test_estimate_json_document(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "estimate", "--n", "40", "--strategy", "uniform",
                    "--precision", "0.05", "--seed", "3", "--json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["stop_reason"] == STOP_PRECISION
        assert document["converged"] is True
        assert document["from_cache"] is False
        assert document["n_trials"] > 0
        assert document["ci_half_width_bits"] <= 0.05
        assert document["backend"] == "batch"
        assert document["convergence_history"]
        assert "telemetry" not in document  # no --metrics flag given

    def test_estimate_metrics_shows_counters_and_convergence(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "estimate", "--n", "40", "--strategy", "uniform",
                    "--precision", "0.05", "--seed", "3", "--metrics", "--trace",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "stop reason" in output
        assert "cache_misses_total" in output
        assert "engine_trials_total" in output
        assert "adaptive_stops_total{reason=precision}" in output
        assert "-- convergence --" in output
        assert "service.estimate" in output  # the span tree

    def test_estimate_leaves_the_null_registry_active(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "estimate", "--n", "40", "--strategy", "uniform",
                    "--precision", "0.05", "--seed", "3", "--metrics",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert get_registry() is NULL_REGISTRY

    def test_batch_metrics_reports_engine_chunks(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "batch", "--n", "40", "--strategy", "uniform",
                    "--trials", "2000", "--metrics",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "engine_chunks_total{engine=five-class}" in output
        assert "engine_chunk_seconds" in output

    def test_metrics_file_round_trips_through_stats(self, tmp_path, capsys):
        from repro.cli import main

        snapshot_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "estimate", "--n", "40", "--strategy", "uniform",
                    "--precision", "0.05", "--seed", "3",
                    "--metrics-file", str(snapshot_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert snapshot_path.exists()

        assert main(["stats", "--metrics-file", str(snapshot_path)]) == 0
        table = capsys.readouterr().out
        assert "service_requests_total" in table

        assert (
            main(
                [
                    "stats", "--metrics-file", str(snapshot_path),
                    "--format", "prometheus",
                ]
            )
            == 0
        )
        assert "# TYPE repro_service_requests_total counter" in capsys.readouterr().out

    def test_stats_requires_an_input(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 2
        assert "needs --metrics-file and/or --cache-dir" in capsys.readouterr().err

    def test_stats_reports_cache_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "estimate", "--n", "40", "--strategy", "uniform",
                    "--precision", "0.05", "--seed", "3",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "disk entries" in output


class TestPrometheusLabelEscaping:
    """Label values must survive the 0.0.4 text format: backslash, quote,
    and newline escape in that order, so rendered series always parse."""

    def test_special_characters_escape(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", path='a\\b"c\nd').inc()
        text = render_prometheus(registry)
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\nrepro_odd_total{" in text

    def test_backslash_escapes_before_quote_and_newline(self):
        # A pre-escaped-looking value must not double-unescape: the literal
        # two characters backslash-n stay distinct from one newline.
        registry = MetricsRegistry()
        registry.counter("one_total", value="\\n").inc()
        registry.counter("two_total", value="\n").inc()
        text = render_prometheus(registry)
        assert 'value="\\\\n"' in text  # literal backslash + n
        assert 'value="\\n"' in text    # escaped newline

    def test_plain_labels_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("plain_total", tier="memory").inc()
        assert 'tier="memory"' in render_prometheus(registry)


class TestAtomicSnapshotWrite:
    def test_no_temporary_leftovers(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        target = tmp_path / "snapshot.json"
        write_snapshot(target, registry)
        assert json.loads(target.read_text())["counters"]
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "snapshot.json"
        first = MetricsRegistry()
        first.counter("a_total").inc()
        write_snapshot(target, first)
        second = MetricsRegistry()
        second.counter("b_total").inc(2)
        write_snapshot(target, second)
        names = [entry["name"] for entry in json.loads(target.read_text())["counters"]]
        assert names == ["b_total"]


class TestEnvironmentFingerprint:
    def test_snapshots_carry_the_fingerprint(self):
        from repro import __version__

        for registry in (MetricsRegistry(), NullRegistry()):
            environment = registry.snapshot()["environment"]
            assert set(environment) == {"python", "platform", "repro_version"}
            assert environment["repro_version"] == __version__

    def test_environment_key_is_stable_and_sorted(self):
        from repro.utils.env import environment_fingerprint, environment_key

        key = environment_key({"b": "2", "a": "1"})
        assert key == "a=1|b=2"
        assert environment_key() == environment_key(environment_fingerprint())

    def test_stats_prints_the_environment_line(self, tmp_path, capsys):
        from repro.cli import main

        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        target = tmp_path / "snapshot.json"
        write_snapshot(target, registry)
        assert main(["stats", "--metrics-file", str(target)]) == 0
        output = capsys.readouterr().out
        assert "environment: " in output
        assert "python=" in output and "repro_version=" in output

    def test_json_format_has_no_extra_line(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "snapshot.json"
        write_snapshot(target, MetricsRegistry())
        assert main(["stats", "--metrics-file", str(target), "--format", "json"]) == 0
        assert "environment: " not in capsys.readouterr().out


class TestRegistryConcurrency:
    """The registry is shared by the service's worker threads: hammering one
    counter/histogram from many threads must lose no increments."""

    THREADS = 8
    PER_THREAD = 2_000

    def test_counters_and_histograms_exact_under_contention(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(self.PER_THREAD):
                registry.counter("hammer_total").inc()
                registry.counter("hammer_total", worker=str(worker)).inc(2)
                registry.histogram("hammer_seconds").observe(1.0)
                if i % 100 == 0:
                    registry.gauge("hammer_active").set(worker)

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.THREADS * self.PER_THREAD
        assert registry.counter("hammer_total").value == total
        for worker in range(self.THREADS):
            assert (
                registry.counter("hammer_total", worker=str(worker)).value
                == 2 * self.PER_THREAD
            )
        histogram = registry.histogram("hammer_seconds")
        assert histogram.count == total
        assert histogram.sum == float(total)

    def test_service_pool_increments_are_exact(self):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            requests = [_request(seed=seed) for seed in range(6)]
            with EstimationService() as service, ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(service.estimate, requests + requests))
            assert all(result.converged for result in results)
            snapshot = registry.snapshot()
            counters = {
                (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
                for entry in snapshot["counters"]
            }
            assert counters[("service_requests_total", ())] == 12.0
            # Six unique digests computed once each; the duplicates were
            # served by dedup or the cache, never recomputed.
            assert counters[("adaptive_stops_total", (("reason", "precision"),))] == 6.0
        finally:
            set_registry(None)
