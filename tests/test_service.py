"""Tests for the adaptive-precision estimation service (:mod:`repro.service`).

Covers the four contracts of the subsystem:

* **canonicalization** — equivalent request specs hash identically, distinct
  specs do not, and the digest is stable across sessions (a pinned golden
  value guards the on-disk cache against silent canonical-form drift);
* **bit identity** — cache round-trips through both tiers reproduce reports
  float-for-float;
* **adaptive determinism** — a fixed ``(seed, block_size)`` reproduces the
  merged report bit-for-bit, across backends and service instances;
* **precision economics** — on the reference configuration the adaptive
  scheduler reaches the target CI half-width with measurably fewer trials
  than the fixed reference budget.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import statistics
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.distributions import (
    FixedLength,
    GeometricLength,
    PoissonLength,
    TwoPointLength,
    UniformLength,
)
from repro.exceptions import ConfigurationError
from repro.service import (
    AdaptiveScheduler,
    CachedEstimate,
    DistributionSpec,
    EstimateRequest,
    EstimationService,
    ResultCache,
)
from repro.service.adaptive import trial_floor

#: The reference configuration of the acceptance criterion.
REFERENCE_KWARGS = dict(
    n_nodes=50,
    distribution=DistributionSpec("uniform", {"low": 3, "high": 8}),
    precision=0.01,
    block_size=5_000,
    max_trials=200_000,
    seed=7,
)
#: Golden digest of the reference request.  If this changes, the canonical
#: form changed and every existing on-disk cache silently invalidates —
#: that must be a deliberate decision (bump CANONICAL_VERSION), not drift.
#: Last bump: CANONICAL_VERSION 2 (the path_model field, cycle requests).
REFERENCE_DIGEST = "8da543ffe029c6189ccaf737d190640beec9dafcdfd7a926b8f9cbdef0025bff"


class TestDistributionSpec:
    @pytest.mark.parametrize(
        "distribution",
        [
            FixedLength(5),
            UniformLength(3, 8),
            GeometricLength(p_forward=0.75, minimum=1, max_length=19),
            TwoPointLength(3, 4, 0.5),
            PoissonLength(rate=2.5, minimum=1, max_length=12),
        ],
    )
    def test_round_trip_rebuilds_an_equal_distribution(self, distribution):
        spec = DistributionSpec.from_distribution(distribution)
        assert spec.build() == distribution

    def test_param_order_is_canonicalized(self):
        a = DistributionSpec("uniform", {"low": 3, "high": 8})
        b = DistributionSpec("uniform", {"high": 8, "low": 3})
        assert a == b and a.params == b.params

    def test_matches_spec_extracted_from_live_object(self):
        assert DistributionSpec("uniform", {"low": 3, "high": 8}) == (
            DistributionSpec.from_distribution(UniformLength(3, 8))
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec("weibull", {"shape": 2})

    def test_unknown_and_missing_params_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec("fixed", {"length": 5, "wat": 1})
        with pytest.raises(ConfigurationError):
            DistributionSpec("uniform", {"low": 3})

    def test_unsupported_family_falls_back_to_categorical(self):
        truncated = GeometricLength(p_forward=0.9, minimum=1).truncated(9)
        spec = DistributionSpec.from_distribution(truncated)
        assert spec.family == "categorical"
        assert spec.build() == truncated


class TestRequestCanonicalization:
    def test_golden_digest_is_stable(self):
        assert EstimateRequest(**REFERENCE_KWARGS).digest() == REFERENCE_DIGEST

    def test_clique_topology_spec_keeps_the_golden_digest(self):
        # An explicit clique is the default routing model: it normalises to
        # topology=None and must emit the byte-identical version-2 canonical
        # form, so pre-topology on-disk caches stay valid.
        request = EstimateRequest(**REFERENCE_KWARGS, topology="clique")
        assert request.topology is None
        assert request.digest() == REFERENCE_DIGEST
        assert request.canonical_dict()["version"] == 2
        assert "topology" not in request.canonical_dict()

    def test_equivalent_requests_hash_identically(self):
        base = EstimateRequest(**REFERENCE_KWARGS)
        live = EstimateRequest(
            **{**REFERENCE_KWARGS, "distribution": UniformLength(3, 8)}
        )
        canonical_set = EstimateRequest(**REFERENCE_KWARGS, compromised=(0,))
        assert live.digest() == base.digest()
        assert canonical_set.digest() == base.digest()
        assert canonical_set.compromised is None

    @pytest.mark.parametrize(
        "override",
        [
            {"n_nodes": 51},
            {"seed": 8},
            {"precision": 0.02},
            {"block_size": 4_000},
            {"max_trials": 100_000},
            {"backend": "sharded"},
            {"adversary": AdversaryModel.PREDECESSOR_ONLY.value},
            {"receiver_compromised": False},
            {"distribution": DistributionSpec("uniform", {"low": 3, "high": 9})},
            {"distribution": DistributionSpec("fixed", {"length": 5})},
        ],
    )
    def test_distinct_requests_hash_differently(self, override):
        base = EstimateRequest(**REFERENCE_KWARGS)
        other = EstimateRequest(**{**REFERENCE_KWARGS, **override})
        assert other.digest() != base.digest()

    def test_backend_option_order_is_canonical(self):
        a = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("workers", 2), ("shards", 4)),
        )
        b = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("shards", 4), ("workers", 2)),
        )
        assert a.digest() == b.digest()

    def test_worker_count_is_execution_only(self):
        """``workers`` never changes the bits, so it must not split the cache."""
        base = EstimateRequest(**REFERENCE_KWARGS | {"backend": "sharded"})
        two = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("workers", 2),),
        )
        eight = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("workers", 8),),
        )
        assert two.digest() == eight.digest() == base.digest()
        # ...while shards *is* part of the determinism contract.
        pinned = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("shards", 4),),
        )
        assert pinned.digest() != base.digest()
        # The live request still carries workers for execution.
        assert dict(two.backend_options)["workers"] == 2

    def test_canonical_round_trip(self):
        request = EstimateRequest(**REFERENCE_KWARGS)
        rebuilt = EstimateRequest.from_canonical_dict(
            json.loads(request.canonical_json())
        )
        assert rebuilt == request and rebuilt.digest() == request.digest()

    def test_digest_hashes_the_canonical_form_once_per_request(self, monkeypatch):
        # A cache miss asks for the digest three times (service, cache get,
        # cache put); the frozen request keeps the first answer.
        encodings = []
        canonical_json = EstimateRequest.canonical_json

        def counted(self):
            encodings.append(self)
            return canonical_json(self)

        monkeypatch.setattr(EstimateRequest, "canonical_json", counted)
        request = EstimateRequest(**REFERENCE_KWARGS)
        assert {request.digest() for _ in range(3)} == {REFERENCE_DIGEST}
        assert encodings == [request]
        reseeded = dataclasses.replace(request, seed=8)
        assert reseeded.digest() != REFERENCE_DIGEST
        assert len(encodings) == 2
        assert hash(request) == hash(EstimateRequest(**REFERENCE_KWARGS))
        assert request == EstimateRequest(**REFERENCE_KWARGS)

    def test_invalid_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimateRequest(**REFERENCE_KWARGS | {"precision": -0.5})
        with pytest.raises(ConfigurationError):
            EstimateRequest(**REFERENCE_KWARGS | {"block_size": 0})
        with pytest.raises(ConfigurationError):
            EstimateRequest(**REFERENCE_KWARGS, compromised=(0, 99))
        with pytest.raises(ConfigurationError):
            EstimateRequest(**REFERENCE_KWARGS | {"n_compromised": 3}, compromised=(0, 1))


class TestIntegerSettingsFailFast:
    """Integer fields refuse floats, bools and negatives at construction.

    Each used to be truncated by ``int()`` (and digested as the truncated
    value) or to fail deep in numpy on the first estimate.
    """

    U2_5 = DistributionSpec("uniform", {"low": 2, "high": 5})

    @staticmethod
    def _rejects(field, **kwargs):
        with pytest.raises(ConfigurationError, match=field) as caught:
            EstimateRequest(**kwargs)
        assert "\n" not in str(caught.value)

    def test_request_n_nodes_20_7(self):
        self._rejects("n_nodes", n_nodes=20.7, distribution=self.U2_5)

    def test_request_n_compromised_1_9(self):
        self._rejects("n_compromised", n_nodes=20, n_compromised=1.9, distribution=self.U2_5)

    def test_request_seed_3_9(self):
        self._rejects("seed", n_nodes=20, seed=3.9, distribution=self.U2_5)

    def test_request_seed_minus_1(self):
        self._rejects("seed", n_nodes=20, seed=-1, distribution=self.U2_5)

    def test_request_max_trials_2_5(self):
        self._rejects("max_trials", n_nodes=20, max_trials=2.5, distribution=self.U2_5)

    def test_request_block_size_true(self):
        self._rejects("block_size", n_nodes=20, block_size=True, distribution=self.U2_5)

    def test_request_numpy_integers_keep_the_digest(self):
        import numpy as np

        plain = EstimateRequest(**REFERENCE_KWARGS)
        wrapped = EstimateRequest(
            **REFERENCE_KWARGS
            | {
                "n_nodes": np.int64(50),
                "seed": np.int32(7),
                "block_size": np.int64(5_000),
                "max_trials": np.int64(200_000),
            }
        )
        assert type(wrapped.n_nodes) is int and type(wrapped.seed) is int
        assert wrapped.digest() == plain.digest() == REFERENCE_DIGEST

    def test_service_sharded_shards_2_5(self):
        request = EstimateRequest(
            **REFERENCE_KWARGS | {"backend": "sharded"},
            backend_options=(("workers", 1), ("shards", 2.5)),
        )
        with EstimationService() as service:
            with pytest.raises(ConfigurationError, match="shards"):
                service.estimate(request)


def _reference_cached(seed: int = 7) -> tuple[EstimateRequest, CachedEstimate]:
    request = EstimateRequest(**REFERENCE_KWARGS | {"seed": seed})
    run = AdaptiveScheduler(
        backend="batch",
        precision=request.precision,
        block_size=request.block_size,
        max_trials=request.max_trials,
    ).run(request.model(), request.strategy(), rng=request.seed)
    return request, CachedEstimate(
        report=run.report,
        rounds=run.rounds,
        converged=run.converged,
        stop_reason=run.stop_reason,
    )


class TestResultCache:
    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        request, cached = _reference_cached()
        ResultCache(cache_dir=tmp_path).put(request, cached)
        # A fresh instance bypasses the memory tier entirely.
        loaded = ResultCache(cache_dir=tmp_path).get(request.digest())
        assert loaded is not None
        assert loaded.report == cached.report  # exact float equality
        assert math.isclose(loaded.half_width, cached.half_width, rel_tol=0.0)
        assert (loaded.rounds, loaded.converged, loaded.stop_reason) == (
            cached.rounds, cached.converged, cached.stop_reason,
        )

    def test_memory_lru_evicts_but_disk_retains(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, memory_entries=2)
        entries = [_reference_cached(seed=seed) for seed in (1, 2, 3)]
        for request, cached in entries:
            cache.put(request, cached)
        stats = cache.stats()
        assert stats.memory_entries == 2 and stats.disk_entries == 3
        # The evicted first entry comes back from disk.
        first_request, first_cached = entries[0]
        assert cache.get(first_request.digest()).report == first_cached.report
        assert cache.stats().disk_hits == 1

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        request, cached = _reference_cached()
        cache = ResultCache(cache_dir=tmp_path)
        digest = cache.put(request, cached)
        (tmp_path / f"{digest}.json").write_text("{not json")
        assert ResultCache(cache_dir=tmp_path).get(digest) is None

    def test_failed_disk_write_degrades_to_memory_only(self, tmp_path):
        request, cached = _reference_cached()
        target = tmp_path / "dir-taken-by-a-file"
        target.write_text("not a directory")
        cache = ResultCache(cache_dir=target)
        digest = cache.put(request, cached)  # disk write fails, no raise
        assert cache.get(digest).report == cached.report  # memory tier serves
        assert cache.stats().write_failures == 1

    def test_read_only_uses_do_not_create_the_directory(self, tmp_path):
        missing = tmp_path / "never-written"
        cache = ResultCache(cache_dir=missing)
        assert cache.get("0" * 64) is None
        assert cache.stats().disk_entries == 0 and cache.clear() == 0
        assert not missing.exists()

    def test_clear_empties_both_tiers(self, tmp_path):
        request, cached = _reference_cached()
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(request, cached)
        assert cache.clear() == 1
        assert cache.get(request.digest()) is None
        assert cache.stats().disk_entries == 0


class TestAdaptiveScheduler:
    def test_deterministic_per_seed_and_block_size(self):
        model = SystemModel(n_nodes=50, n_compromised=1)
        runs = [
            AdaptiveScheduler(backend="batch", precision=0.01, block_size=5_000).run(
                model, UniformLength(3, 8), rng=7
            )
            for _ in range(2)
        ]
        assert runs[0].report == runs[1].report
        assert runs[0].trajectory == runs[1].trajectory

    def test_block_size_changes_the_bits(self):
        model = SystemModel(n_nodes=50, n_compromised=1)
        a = AdaptiveScheduler(backend="batch", precision=0.01, block_size=5_000).run(
            model, UniformLength(3, 8), rng=7
        )
        b = AdaptiveScheduler(backend="batch", precision=0.01, block_size=4_000).run(
            model, UniformLength(3, 8), rng=7
        )
        assert a.report.estimate != b.report.estimate

    def test_sharded_backend_matches_its_own_rerun(self):
        model = SystemModel(n_nodes=30, n_compromised=2)
        runs = [
            AdaptiveScheduler(
                backend="sharded", precision=0.02, block_size=4_000,
                workers=1, shards=4,
            ).run(model, UniformLength(1, 6), rng=11)
            for _ in range(2)
        ]
        assert runs[0].report == runs[1].report

    def test_reaches_target_with_fewer_trials_than_fixed_budget(self):
        """The acceptance criterion on the reference configuration."""
        model = SystemModel(n_nodes=50, n_compromised=1)
        distribution = UniformLength(3, 8)
        run = AdaptiveScheduler(
            backend="batch", precision=0.01, block_size=5_000, max_trials=200_000
        ).run(model, distribution, rng=7)
        assert run.converged and run.stop_reason == "precision"
        assert run.half_width <= 0.01
        assert run.n_trials <= 200_000 // 4, (
            f"adaptive spent {run.n_trials} of the 200k fixed budget"
        )
        # The trajectory is monotone in trials and ends at the stop point.
        trials = [n for n, _ in run.trajectory]
        assert trials == sorted(trials) and trials[-1] == run.n_trials
        # And the estimate still covers the closed form.
        exact = AnonymityAnalyzer(model).anonymity_degree(distribution)
        assert run.report.estimate.contains(exact, slack=0.01)

    def test_trial_ceiling_stops_unconverged(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        run = AdaptiveScheduler(
            backend="batch", precision=1e-9, block_size=1_000, max_trials=3_000
        ).run(model, FixedLength(4), rng=0)
        assert not run.converged and run.stop_reason == "max_trials"
        assert run.n_trials == 3_000 and run.rounds == 3

    def test_precision_none_spends_the_full_budget(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        run = AdaptiveScheduler(
            backend="batch", precision=None, block_size=1_000, max_trials=2_500
        ).run(model, FixedLength(4), rng=0)
        assert run.converged and run.n_trials == 2_500 and run.rounds == 3

    def test_exact_backend_short_circuits(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        run = AdaptiveScheduler(backend="exact").run(model, FixedLength(4))
        assert run.converged and run.stop_reason == "exact"
        assert run.n_trials == 0 and run.half_width == 0.0

    def test_non_accumulating_backend_rejected(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        with pytest.raises(
            ConfigurationError, match="accumulation; .* needs the 'batch' or 'sharded'"
        ):
            AdaptiveScheduler(backend="event").run(model, FixedLength(4), rng=0)

    @pytest.mark.parametrize("block_size", [0, -1, 2.5, True, "auto"], ids=repr)
    def test_rejects_bad_block_sizes(self, block_size):
        """A round is a fixed positive trial count, part of the bits' seed."""
        with pytest.raises(ConfigurationError, match="block_size"):
            AdaptiveScheduler(backend="batch", block_size=block_size)

    def test_max_trials_2_5(self):
        # It used to fail on the first block, inside numpy.
        with pytest.raises(ConfigurationError, match="max_trials"):
            AdaptiveScheduler(backend="batch", max_trials=2.5)

    def test_max_trials_true(self):
        # It used to run one trial.
        with pytest.raises(ConfigurationError, match="max_trials"):
            AdaptiveScheduler(backend="batch", max_trials=True)

    def test_block_size_1_n100_u1_20_does_not_stop_at_2_trials(self):
        # Two trials of one class have a zero-width interval: the run used to
        # stop there with 6.6147 bits, against 6.5272 for the closed form.
        seen = []
        run = AdaptiveScheduler(
            backend="batch", precision=0.01, block_size=1, on_round=seen.append
        ).run(SystemModel(n_nodes=100, n_compromised=1), UniformLength(1, 20), rng=0)
        assert run.converged and run.stop_reason == "precision"
        assert run.n_trials >= trial_floor(100, 0.01) == 1_994
        assert 0.0 < run.half_width <= 0.01
        # No round before the last one reports the target as reached.
        assert all(progress.trials_to_target > 0 for progress in seen[:-1])
        assert seen[-1].trials_to_target == 0


def _binomial_lower_bound(trials: int, probability: float, alpha: float) -> int:
    """The largest ``k`` with ``Pr[Binomial(trials, probability) < k] <= alpha``."""
    below = 0.0
    for k in range(trials + 1):
        mass = math.comb(trials, k) * probability**k * (1 - probability) ** (trials - k)
        if below + mass > alpha:
            return k
        below += mass
    return trials


class TestAdaptiveCoverage:
    """Stopping on the running CI half-width must not break the 95% coverage."""

    SEEDS = 400

    def test_coverage_at_c1_n20_uniform_1_6_precision_0_05(self):
        model = SystemModel(n_nodes=20, n_compromised=1)
        law = UniformLength(1, 6)
        exact = AnonymityAnalyzer(model).anonymity_degree(law)
        # Blocks of 100 trials make a request take several rounds, so the
        # stopping rule is what decides where each run ends.
        scheduler = AdaptiveScheduler(backend="batch", precision=0.05, block_size=100)
        runs = [scheduler.run(model, law, rng=seed) for seed in range(self.SEEDS)]
        assert all(run.stop_reason == "precision" for run in runs)
        assert statistics.median(run.rounds for run in runs) >= 5
        covered = sum(run.report.estimate.contains(exact) for run in runs)
        # A correct 95% interval falls below this by chance once in 1000.
        assert covered >= _binomial_lower_bound(self.SEEDS, 0.95, 0.001)

    def test_coverage_at_c1_n100_uniform_1_20_precision_0_01_blocks_of_50(self):
        # Small blocks let the rule stop before the run has drawn the rare
        # classes; without the trial floor 158 of these 200 runs covered.
        model = SystemModel(n_nodes=100, n_compromised=1)
        law = UniformLength(1, 20)
        exact = AnonymityAnalyzer(model).anonymity_degree(law)
        scheduler = AdaptiveScheduler(backend="batch", precision=0.01, block_size=50)
        runs = [scheduler.run(model, law, rng=seed) for seed in range(200)]
        assert all(run.stop_reason == "precision" for run in runs)
        covered = sum(run.report.estimate.contains(exact) for run in runs)
        assert covered >= _binomial_lower_bound(200, 0.95, 0.001)


class TestEstimationService:
    def test_identical_request_served_from_cache_identically(self, tmp_path):
        request = EstimateRequest(**REFERENCE_KWARGS)
        with EstimationService(cache_dir=tmp_path) as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert not cold.from_cache and warm.from_cache
        assert warm.report == cold.report
        assert warm.digest == cold.digest == REFERENCE_DIGEST

    def test_disk_tier_survives_service_restarts(self, tmp_path):
        request = EstimateRequest(**REFERENCE_KWARGS)
        with EstimationService(cache_dir=tmp_path) as first:
            cold = first.estimate(request)
        with EstimationService(cache_dir=tmp_path) as second:
            reloaded = second.estimate(request)
        assert reloaded.from_cache and reloaded.report == cold.report

    def test_recompute_is_bit_deterministic_across_services(self):
        request = EstimateRequest(**REFERENCE_KWARGS)
        with EstimationService() as a, EstimationService() as b:
            first, second = a.estimate(request), b.estimate(request)
        assert not first.from_cache and not second.from_cache
        assert first.report == second.report

    def test_budget_stopped_answer_is_cached_like_a_converged_one(self):
        # The stop reason is a pure function of the request, so an answer
        # that ran out of trials is as cacheable as one that converged.
        request = EstimateRequest(
            n_nodes=20,
            distribution=DistributionSpec("fixed", {"length": 4}),
            precision=1e-9,
            block_size=1_000,
            max_trials=3_000,
            seed=0,
        )
        with EstimationService() as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert cold.stop_reason == "max_trials" and not cold.converged
        assert not cold.from_cache and warm.from_cache
        assert warm.report == cold.report
        assert (warm.stop_reason, warm.converged, warm.rounds) == (
            cold.stop_reason, cold.converged, cold.rounds
        )

    def test_estimate_many_preserves_order_and_matches_sequential(self):
        requests = [
            EstimateRequest(
                n_nodes=20,
                distribution=DistributionSpec("fixed", {"length": length}),
                precision=0.05,
                block_size=2_000,
                max_trials=50_000,
                seed=3,
            )
            for length in (2, 3, 4)
        ]
        with EstimationService() as service, ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(service.estimate, requests))
        with EstimationService() as service:
            sequential = [service.estimate(request) for request in requests]
        assert [r.report for r in parallel] == [r.report for r in sequential]

    def test_cache_stats_and_clear(self, tmp_path):
        request = EstimateRequest(**REFERENCE_KWARGS)
        with EstimationService(cache_dir=tmp_path) as service:
            service.estimate(request)
            service.estimate(request)
            stats = service.cache.stats()
            assert stats.misses == 1 and stats.hits == 1
            assert stats.disk_entries == 1
            assert service.cache.clear() == 1
            assert service.cache.stats().disk_entries == 0

    def test_first_service_freezes_the_startup_heap_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "get_freeze_count", lambda: calls.count("freeze"))
        monkeypatch.setattr(gc, "collect", lambda: calls.append("collect"))
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        EstimationService().close()
        EstimationService().close()
        assert calls == ["collect", "freeze"]


class TestServiceCLI:
    def test_estimate_command_cold_then_cached(self, tmp_path, capsys):
        argv = [
            "estimate", "--n", "30", "--strategy", "uniform", "--low", "2",
            "--high", "6", "--precision", "0.05", "--block-size", "2000",
            "--seed", "4", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "served from cache" in cold and "False" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "True" in warm.split("served from cache")[1].splitlines()[0]

    def test_estimate_command_rejects_event_backend(self, capsys):
        code = main(["estimate", "--n", "20", "--backend", "event"])
        assert code == 2
        assert "accumulat" in capsys.readouterr().err

    def test_cache_command_requires_an_existing_directory(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "typo")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()

    def test_cache_stats_and_clear_commands(self, tmp_path, capsys):
        assert main([
            "estimate", "--n", "20", "--strategy", "fixed", "--length", "3",
            "--precision", "0.05", "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "disk entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestCLIHardening:
    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "--n", "20", "--trials", "0"],
            ["batch", "--n", "20", "--trials", "-5"],
            ["batch", "--n", "20", "--trials", "many"],
            ["batch", "--n", "20", "--workers", "0", "--backend", "sharded"],
            ["batch", "--n", "20", "--shards", "-1", "--backend", "sharded"],
            ["batch", "--n", "20", "--backend", "warp-drive"],
            ["simulate", "--trials", "0"],
            ["estimate", "--precision", "0"],
            ["estimate", "--precision", "nan"],
            ["estimate", "--block-size", "0"],
            ["estimate", "--max-trials", "-1"],
            ["estimate", "--backend", "warp-drive"],
        ],
    )
    def test_bad_arguments_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["batch", "estimate", "simulate"])
    def test_seed_minus_1_is_a_usage_error(self, command, capsys):
        # numpy used to refuse the seed with a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n", "20", "--seed", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    def test_workers_without_sharded_backend_is_a_one_liner(self, capsys):
        assert main(["batch", "--n", "12", "--trials", "100", "--workers", "2"]) == 2
        assert "--workers/--shards only apply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--n", "1"], ["simulate", "--n", "4", "--protocol", "remailer"]],
    )
    def test_infeasible_simulate_protocol_is_a_one_liner(self, argv, capsys):
        # Too few nodes for any route, or for the remailer's longest chain.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestTrajectoryReplay:
    """Cache hits replay the full convergence trajectory bit-identically —
    the substrate of the run ledger's payload-diff contract."""

    def _request(self, **overrides) -> EstimateRequest:
        parameters = dict(REFERENCE_KWARGS)
        parameters.update(overrides)
        return EstimateRequest(**parameters)

    def test_memory_hit_replays_the_trajectory(self):
        request = self._request()
        with EstimationService() as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert warm.from_cache
        assert cold.trajectory and warm.trajectory == cold.trajectory
        assert warm.convergence_history == cold.convergence_history

    def test_disk_hit_replays_the_trajectory_bit_for_bit(self, tmp_path):
        request = self._request()
        with EstimationService(cache_dir=tmp_path) as first:
            cold = first.estimate(request)
        with EstimationService(cache_dir=tmp_path) as second:
            reloaded = second.estimate(request)
        assert reloaded.from_cache
        assert reloaded.trajectory == cold.trajectory
        for (_, cold_width), (_, warm_width) in zip(
            cold.trajectory, reloaded.trajectory
        ):
            assert cold_width.hex() == warm_width.hex()

    def test_dedup_hit_carries_the_trajectory(self):
        request = self._request()
        with EstimationService() as service, ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(service.estimate, [request] * 4))
        trajectories = {result.trajectory for result in results}
        assert len(trajectories) == 1 and results[0].trajectory


class TestRoundProgress:
    def _request(self, **overrides) -> EstimateRequest:
        parameters = dict(REFERENCE_KWARGS)
        parameters.update(overrides)
        return EstimateRequest(**parameters)

    def test_service_invokes_on_round_per_round(self):
        from repro.service import RoundProgress

        seen: list[RoundProgress] = []
        request = self._request()
        with EstimationService() as service:
            result = service.estimate(request, on_round=seen.append)
        assert len(seen) == result.rounds
        assert [p.rounds for p in seen] == list(range(1, result.rounds + 1))
        final = seen[-1]
        assert final.n_trials == result.n_trials
        assert final.half_width == result.trajectory[-1][1]
        assert final.trials_to_target == 0  # the run converged

    def test_cache_hit_never_invokes_on_round(self):
        calls: list[object] = []
        request = self._request()
        with EstimationService() as service:
            service.estimate(request)
            warm = service.estimate(request, on_round=calls.append)
        assert warm.from_cache and calls == []

    def test_extrapolation_follows_inverse_square_root(self):
        from repro.service import RoundProgress

        progress = RoundProgress(
            rounds=1,
            n_trials=10_000,
            half_width=0.04,
            precision=0.01,
            block_size=10_000,
            max_trials=1_000_000,
        )
        # Halving the width four times over needs 16x the trials.
        assert progress.trials_to_target == 150_000
        assert progress.rounds_to_target == 15

    def test_extrapolation_caps_at_the_budget(self):
        from repro.service import RoundProgress

        progress = RoundProgress(
            rounds=1,
            n_trials=10_000,
            half_width=1.0,
            precision=0.0001,
            block_size=10_000,
            max_trials=50_000,
        )
        assert progress.trials_to_target == 40_000
        assert progress.rounds_to_target == 4

    def test_trial_floor_holds_the_target_back(self):
        from repro.service import RoundProgress

        progress = RoundProgress(
            rounds=2,
            n_trials=2,
            half_width=0.0,
            precision=0.01,
            block_size=1,
            max_trials=1_000_000,
            min_trials=1_994,
        )
        assert progress.trials_to_target == 1_992
        assert progress.rounds_to_target == 1_992

    def test_no_precision_target_means_no_extrapolation(self):
        from repro.service import RoundProgress

        progress = RoundProgress(
            rounds=1,
            n_trials=10_000,
            half_width=0.5,
            precision=None,
            block_size=10_000,
            max_trials=50_000,
        )
        assert progress.trials_to_target is None
        assert progress.rounds_to_target is None

    def test_callback_cannot_change_the_bits(self):
        request = self._request()
        with EstimationService() as bare, EstimationService() as observed:
            plain = bare.estimate(request)
            watched = observed.estimate(request, on_round=lambda p: None)
        assert watched.report == plain.report
        assert watched.trajectory == plain.trajectory


class TestProgressCli:
    def test_non_tty_stderr_suppresses_the_meter(self):
        import io

        from repro.cli import _progress_callback

        assert _progress_callback(io.StringIO()) is None

    def test_tty_stderr_gets_a_rewriting_line(self):
        import io

        from repro.cli import _progress_callback
        from repro.service import RoundProgress

        class Tty(io.StringIO):
            def isatty(self) -> bool:
                return True

        stream = Tty()
        on_round = _progress_callback(stream)
        assert on_round is not None
        on_round(
            RoundProgress(
                rounds=2,
                n_trials=20_000,
                half_width=0.02,
                precision=0.01,
                block_size=10_000,
                max_trials=100_000,
            )
        )
        output = stream.getvalue()
        assert output.startswith("\r")
        assert "round 2" in output and "20000 trials" in output
        assert "round(s) to target" in output

    def test_progress_flag_is_quiet_when_redirected(self, capsys):
        argv = [
            "estimate", "--n", "40", "--strategy", "uniform",
            "--precision", "0.05", "--seed", "3", "--progress",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "\r" not in captured.err  # pytest's capture is not a tty
        assert "estimated H*" in captured.out
