"""Tests for the cycle-allowed path machinery.

Covers the full vertical slice the cycle engines rest on: clique walk counts
(:mod:`repro.combinatorics.walks`), the cycle-aware exact inference
(:mod:`repro.adversary.inference`) at any number of compromised nodes, the
classifier and engines (:mod:`repro.batch.cycleclassify` /
``cycleengine``), the backend/sharding/determinism contracts, and the service round-trip —
including multi-compromised cycle paths (``C > 1``), which closed the
roadmap's last coverage gap.

The ground truth throughout is :class:`repro.core.enumeration.ExhaustiveAnalyzer`,
the only pre-existing exact engine for cycle-allowed paths.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.batch import (
    BatchMonteCarlo,
    CycleBatchEngine,
    CycleScoreTable,
    ShardedBackend,
    cycle_trial_key,
    estimate_anonymity,
)
from repro.batch import cycleengine
from repro.batch.cycleclassify import ADJACENT, classify_cycle_arrays
from repro.cli import main
from repro.combinatorics.walks import (
    clique_walks,
    normalized_avoiding_walks,
    normalized_clique_walks,
    normalized_free_walks,
    total_cycle_paths,
)
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions import FixedLength, GeometricLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.experiments.registry import list_experiments
from repro.routing.strategies import (
    PathSelectionStrategy,
    deployed_system_strategies,
)
from repro.service import DistributionSpec, EstimateRequest, EstimationService
from repro.service.adaptive import AdaptiveScheduler
from repro.simulation.experiment import StrategyMonteCarlo


def cycle_strategy(
    p_forward: float = 0.6, minimum: int = 1, max_length: int = 6
) -> PathSelectionStrategy:
    return PathSelectionStrategy(
        "cycle walk",
        GeometricLength(p_forward=p_forward, minimum=minimum, max_length=max_length),
        path_model=PathModel.CYCLE_ALLOWED,
    )


def draw_cycle_trials(n_nodes, distribution, n_trials, seed):
    """``(sender, path)`` pairs walked hop by hop: uniform next hop, no self-loop."""
    generator = np.random.default_rng(seed)
    senders = generator.integers(0, n_nodes, size=n_trials).tolist()
    trials = []
    for sender, length in zip(senders, distribution.sample_batch(n_trials, generator)):
        path = []
        current = sender
        for _ in range(length):
            step = int(generator.integers(0, n_nodes - 1))
            if step >= current:
                step += 1
            path.append(step)
            current = step
        trials.append((sender, tuple(path)))
    return trials


def cycle_arrays(trials, padding=0):
    """The kernel's array layout of ``trials``: senders, lengths, hop matrix.

    Cells past a trial's length hold ``padding``; a classifier must never
    read them.
    """
    width = max(len(path) for _, path in trials)
    senders = np.array([sender for sender, _ in trials], dtype=np.int64)
    lengths = np.array([len(path) for _, path in trials], dtype=np.int64)
    hops = np.full((len(trials), width), padding, dtype=np.int64)
    for index, (_, path) in enumerate(trials):
        hops[index, : len(path)] = path
    return senders, lengths, hops


#: Hop-matrix fillers past each trial's length: a node id, a negative value,
#: one far beyond any node id or table size, and one far below any valid
#: index (the kind of value ``np.empty`` can leave in a dead cell).
PADDINGS = (0, -1, 2**62, -(2**62))


def scalar_histogram(trials, compromised, adversary, receiver_compromised=True):
    """``{key: count}`` through ``cycle_trial_key``, row by row."""
    return dict(
        Counter(
            cycle_trial_key(
                sender, path, len(path), compromised, adversary, receiver_compromised
            )
            for sender, path in trials
        )
    )


# ---------------------------------------------------------------------- #
# Walk counting                                                           #
# ---------------------------------------------------------------------- #


class TestCliqueWalks:
    @pytest.mark.parametrize("m_vertices", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("edges", [0, 1, 2, 3, 4, 5])
    def test_matches_brute_force(self, m_vertices, edges):
        """The spectral closed form equals explicit walk enumeration."""

        def brute(closed: bool) -> int:
            start, end = 0, 0 if closed else 1
            if end >= m_vertices:
                return 0
            count = 0
            for steps in itertools.product(range(m_vertices), repeat=edges):
                sequence = (start, *steps)
                if sequence[-1] != end:
                    continue
                if all(a != b for a, b in zip(sequence, sequence[1:])):
                    count += 1
            return count

        assert clique_walks(m_vertices, edges, closed=True) == brute(True)
        if m_vertices >= 2:
            assert clique_walks(m_vertices, edges, closed=False) == brute(False)

    @pytest.mark.parametrize("m_vertices", [2, 4, 9])
    @pytest.mark.parametrize("edges", [0, 1, 3, 7])
    @pytest.mark.parametrize("closed", [True, False])
    def test_normalized_form_consistent(self, m_vertices, edges, closed):
        expected = clique_walks(m_vertices, edges, closed) / m_vertices**edges
        assert normalized_clique_walks(m_vertices, edges, closed) == pytest.approx(
            expected, rel=1e-12
        )

    def test_normalized_form_stays_finite_for_huge_systems(self):
        # The raw integer count overflows a float here; the normalised form
        # must not.
        value = normalized_clique_walks(9_999, 400, closed=False)
        assert 0.0 < value < 1.0

    def test_total_cycle_paths(self):
        assert total_cycle_paths(5, 0) == 1
        assert total_cycle_paths(5, 3) == 4**3
        with pytest.raises(ConfigurationError):
            total_cycle_paths(1, 2)
        with pytest.raises(ConfigurationError):
            clique_walks(3, -1, closed=True)

    @pytest.mark.parametrize("n_nodes", [5, 8])
    @pytest.mark.parametrize("n_avoid", [0, 1, 2, 3])
    @pytest.mark.parametrize("closed", [True, False])
    def test_avoiding_walks_equal_subclique_counts(self, n_nodes, n_avoid, closed):
        """Multi-node avoidance = walks in the allowed sub-clique, per (N-1)^e."""
        for edges in (0, 1, 2, 4, 7):
            expected = (
                clique_walks(n_nodes - n_avoid, edges, closed)
                / (n_nodes - 1) ** edges
            )
            # abs tolerance: the spectral form renders an exactly-zero walk
            # count as a ~1-ulp residual (e.g. M=6, one closed edge).
            assert normalized_avoiding_walks(
                n_nodes, n_avoid, edges, closed
            ) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_single_avoidance_reduces_to_the_original_form(self):
        # The C = 1 inference path must be bit-identical to PR 4's.
        for edges in (0, 1, 3, 6):
            for closed in (True, False):
                assert normalized_avoiding_walks(9, 1, edges, closed) == (
                    normalized_clique_walks(8, edges, closed)
                )

    def test_free_walks(self):
        assert normalized_free_walks(6, 2, 3) == pytest.approx((3 / 5) ** 3)
        assert normalized_free_walks(6, 0, 2) == pytest.approx(1.0)
        assert normalized_free_walks(6, 2, 0) == 1.0
        with pytest.raises(ConfigurationError):
            normalized_avoiding_walks(6, 6, 1, closed=True)
        with pytest.raises(ConfigurationError):
            normalized_free_walks(6, -1, 1)
        with pytest.raises(ConfigurationError):
            normalized_free_walks(6, 2, -1)


# ---------------------------------------------------------------------- #
# Exact cycle inference vs exhaustive enumeration                         #
# ---------------------------------------------------------------------- #


def enumerate_degree_via_inference(model, distribution) -> float:
    """Exact H*(S) by enumerating every path and pricing it with the inference engine."""
    analyzer = ExhaustiveAnalyzer(model)
    inference = BayesianPathInference(model, distribution)
    degree = 0.0
    n = model.n_nodes
    for sender in range(n):
        for length, length_prob in distribution.items():
            paths = list(analyzer._paths(sender, length))
            if not paths:
                continue
            path_prob = length_prob / (n * len(paths))
            for path in paths:
                observation = observation_from_path(
                    sender,
                    path,
                    model.compromised_nodes(),
                    receiver_compromised=model.receiver_compromised,
                )
                posterior = inference.posterior(observation)
                degree += path_prob * posterior.entropy_bits
    return degree


class TestCycleInference:
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize(
        "distribution",
        [UniformLength(0, 3), GeometricLength(0.6, minimum=1, max_length=5)],
        ids=["uniform", "geometric"],
    )
    def test_degree_matches_exhaustive(self, adversary, distribution):
        model = SystemModel(
            n_nodes=5,
            n_compromised=1,
            path_model=PathModel.CYCLE_ALLOWED,
            adversary=adversary,
        )
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        via_inference = enumerate_degree_via_inference(model, distribution)
        assert via_inference == pytest.approx(truth, abs=1e-10)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_degree_matches_exhaustive_honest_receiver(self, adversary):
        model = SystemModel(
            n_nodes=5,
            n_compromised=1,
            path_model=PathModel.CYCLE_ALLOWED,
            adversary=adversary,
            receiver_compromised=False,
        )
        distribution = UniformLength(1, 3)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        via_inference = enumerate_degree_via_inference(model, distribution)
        assert via_inference == pytest.approx(truth, abs=1e-10)

    def test_origin_observation_identifies_the_sender(self):
        model = SystemModel(
            n_nodes=6, n_compromised=1, path_model=PathModel.CYCLE_ALLOWED
        )
        inference = BayesianPathInference(model, FixedLength(3))
        observation = observation_from_path(0, (1, 2, 1), frozenset({0}))
        posterior = inference.posterior(observation)
        assert posterior.probability(0) == 1.0
        assert posterior.entropy_bits == 0.0


# ---------------------------------------------------------------------- #
# Kernel draws                                                            #
# ---------------------------------------------------------------------- #


class TestCycleKernelDraws:
    def test_lengths_can_exceed_the_simple_path_cap(self, rng):
        # The whole point of the cycle model: no N - 1 feasibility cap.
        model = SystemModel(n_nodes=3, n_compromised=1)
        strategy = PathSelectionStrategy(
            "F(8)", FixedLength(8), path_model=PathModel.CYCLE_ALLOWED
        )
        engine = CycleBatchEngine(model, strategy, frozenset({0}))
        length_sum, classes = engine.accumulate_chunk(10, rng)
        assert length_sum == 80
        assert sum(count for count, _, _ in classes.values()) == 10

    def test_paths_follow_the_selector_rules(self, rng, monkeypatch):
        """The kernel's hop matrix: no self-forwarding, nodes in range."""
        walked = []

        def recording(senders, lengths, hops, *args, **kwargs):
            walked.append((senders.copy(), lengths.copy(), np.array(hops)))
            return classify_cycle_arrays(senders, lengths, hops, *args, **kwargs)

        monkeypatch.setattr(cycleengine, "classify_cycle_arrays", recording)
        model = SystemModel(n_nodes=7, n_compromised=1)
        strategy = PathSelectionStrategy(
            "U(0, 9)", UniformLength(0, 9), path_model=PathModel.CYCLE_ALLOWED
        )
        engine = CycleBatchEngine(model, strategy, frozenset({0}))
        length_sum, _ = engine.accumulate_chunk(500, rng)
        ((senders, lengths, hops),) = walked
        assert hops.shape == (500, lengths.max())
        assert length_sum == lengths.sum()
        for sender, length, row in zip(senders, lengths, hops):
            path = row[:length].tolist()
            if path:
                assert path[0] != sender
            for first, second in zip(path, path[1:]):
                assert first != second
            assert all(0 <= node < 7 for node in path)

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(ConfigurationError):
            SystemModel(n_nodes=1, n_compromised=0)
        model = SystemModel(n_nodes=4, n_compromised=1)
        strategy = PathSelectionStrategy(
            "F(2)", FixedLength(2), path_model=PathModel.CYCLE_ALLOWED
        )
        engine = CycleBatchEngine(model, strategy, frozenset({0}))
        with pytest.raises(ConfigurationError):
            engine.run_accumulate(0, rng=1)


# ---------------------------------------------------------------------- #
# Classifier                                                              #
# ---------------------------------------------------------------------- #


class TestCycleClassifier:
    def test_scalar_reference_keys(self):
        m = 0
        # sender compromised
        assert cycle_trial_key(0, (1, 2), 2, m) == ("origin",)
        # m absent
        assert cycle_trial_key(1, (2, 3, 2), 3, m) == ("silent",)
        # single occurrence, m last
        assert cycle_trial_key(1, (2, 0), 2, m) == ("fb", 1, (), "recv")
        # single occurrence, successor bridges to the receiver's witness
        assert cycle_trial_key(1, (0, 2), 2, m) == ("fb", 1, (), "eq")
        assert cycle_trial_key(1, (0, 2, 3), 3, m) == ("fb", 1, (), "ne")
        assert cycle_trial_key(1, (0, 2, 3), 3, m, receiver_compromised=False) == (
            "fb", 1, (), "open",
        )
        # two occurrences sharing their honest bridge: 2 -> m -> 3 -> m -> 2
        assert cycle_trial_key(1, (2, 0, 3, 0, 2), 5, m) == (
            "fb", 2, (True,), "eq",
        )
        # adversaries that do not see the full pattern
        assert cycle_trial_key(
            1, (2, 0, 3), 3, m, adversary=AdversaryModel.PREDECESSOR_ONLY
        ) == ("path",)
        assert cycle_trial_key(
            1, (2, 0, 3), 3, m, adversary=AdversaryModel.POSITION_AWARE
        ) == ("pos", 2)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize(
        "n_nodes, compromised, distribution",
        [
            (4, frozenset({0}), GeometricLength(0.7, minimum=1, max_length=10)),
            (6, frozenset({1, 4}), GeometricLength(0.8, minimum=1, max_length=16)),
            (9, frozenset({2, 3, 7}), GeometricLength(0.8, minimum=1, max_length=16)),
        ],
        ids=["C1", "C2", "C3"],
    )
    def test_array_kernel_matches_the_scalar_rule(
        self, n_nodes, compromised, distribution, adversary, receiver_compromised
    ):
        """Key counts equal ``cycle_trial_key`` row by row.

        At ``C >= 2`` the walks are long enough for several visits and
        adjacent gaps, and the compromised identities leave holes in the
        membership table, so a read of a dead cell changes a key or raises.
        """
        trials = draw_cycle_trials(n_nodes, distribution, 4_000, seed=9)
        for padding in PADDINGS:
            keyed = classify_cycle_arrays(
                *cycle_arrays(trials, padding),
                compromised,
                adversary,
                receiver_compromised,
            )
            assert keyed == scalar_histogram(
                trials, compromised, adversary, receiver_compromised
            )
            assert sum(keyed.values()) == len(trials)

    def test_kernels_match_scalar_reference(self):
        trials = draw_cycle_trials(4, UniformLength(0, 8), 1_500, seed=3)
        keyed = classify_cycle_arrays(*cycle_arrays(trials), frozenset({0}))
        reference = Counter(
            cycle_trial_key(sender, path, len(path), 0) for sender, path in trials
        )
        assert keyed == dict(reference)


# ---------------------------------------------------------------------- #
# The engine: parity, the class law, determinism                          #
# ---------------------------------------------------------------------- #


class TestCycleBatchEngine:
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_estimate_covers_exhaustive_truth(self, adversary):
        model = SystemModel(n_nodes=5, n_compromised=1, adversary=adversary)
        strategy = cycle_strategy(max_length=5)
        truth = ExhaustiveAnalyzer(
            model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(strategy.distribution)
        report = BatchMonteCarlo(model, strategy).run(40_000, rng=17)
        assert report.estimate.contains(truth, slack=0.01)

    def test_class_scores_equal_per_trial_event_posteriors(self):
        """The class key provably determines the entropy; verify trial-for-trial."""
        model = SystemModel(n_nodes=6, n_compromised=1)
        strategy = cycle_strategy(max_length=8)
        distribution = strategy.effective_distribution(6)
        table = CycleScoreTable(
            model=model, distribution=distribution, compromised=frozenset({0})
        )
        inference = BayesianPathInference(
            model.with_path_model(PathModel.CYCLE_ALLOWED), distribution
        )
        for sender, path in draw_cycle_trials(6, distribution, 1_000, seed=23):
            key = cycle_trial_key(sender, path, len(path), 0)
            entropy, _ = table.score(key)
            observation = observation_from_path(sender, path, frozenset({0}))
            assert entropy == pytest.approx(
                inference.posterior(observation).entropy_bits, abs=1e-9
            )

    def test_honest_receiver_covers_exhaustive_truth(self):
        model = SystemModel(
            n_nodes=5, n_compromised=1, receiver_compromised=False
        )
        strategy = cycle_strategy(max_length=5)
        truth = ExhaustiveAnalyzer(
            model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(strategy.distribution)
        report = BatchMonteCarlo(model, strategy).run(40_000, rng=29)
        assert report.estimate.contains(truth, slack=0.01)

    def test_agrees_with_event_engine(self):
        model = SystemModel(n_nodes=12, n_compromised=1)
        strategy = cycle_strategy(p_forward=0.75, max_length=20)
        event = StrategyMonteCarlo(model, strategy).run(1_200, rng=31)
        batch = BatchMonteCarlo(model, strategy).run(60_000, rng=31)
        gap = abs(event.degree_bits - batch.degree_bits)
        tolerance = 3.0 * (event.estimate.std_error + batch.estimate.std_error)
        assert gap <= tolerance

    def test_multi_compromised_cycles_select_the_multi_engine(self):
        # The last roadmap gap: C > 1 on cycle paths now has a batch engine.
        model = SystemModel(n_nodes=8, n_compromised=2)
        estimator = BatchMonteCarlo(model, cycle_strategy())
        assert estimator.engine.name == "cycle"
        table = CycleScoreTable(
            model=model,
            distribution=FixedLength(3),
            compromised=frozenset({0, 1}),
        )
        entropy, identified = table.score(("silent",))
        assert entropy > 0.0 and not identified

    def test_engine_requires_a_cycle_strategy(self):
        model = SystemModel(n_nodes=8, n_compromised=1)
        simple = PathSelectionStrategy("F(3)", FixedLength(3))
        with pytest.raises(ConfigurationError):
            CycleBatchEngine(
                model=model, strategy=simple, compromised=frozenset({0})
            )

    def test_mean_path_length_reflects_the_walk(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        strategy = PathSelectionStrategy(
            "F(4) walk", FixedLength(4), path_model=PathModel.CYCLE_ALLOWED
        )
        report = BatchMonteCarlo(model, strategy).run(5_000, rng=2)
        assert report.mean_path_length == 4.0


class TestCycleDeterminism:
    def test_batch_bit_deterministic_per_seed(self):
        model = SystemModel(n_nodes=9, n_compromised=1)
        strategy = cycle_strategy()
        first = BatchMonteCarlo(model, strategy).run(20_000, rng=77)
        second = BatchMonteCarlo(model, strategy).run(20_000, rng=77)
        assert first.estimate == second.estimate
        assert first.identification_rate == second.identification_rate

    def test_sharded_bit_deterministic_per_seed_and_shards(self):
        model = SystemModel(n_nodes=9, n_compromised=1)
        strategy = cycle_strategy()
        backend = ShardedBackend(workers=1, shards=4)
        first = backend.estimate(model, strategy, n_trials=24_000, rng=13)
        second = backend.estimate(model, strategy, n_trials=24_000, rng=13)
        assert first.estimate == second.estimate
        assert first.mean_path_length == second.mean_path_length

    def test_sharded_agrees_with_batch_statistically(self):
        model = SystemModel(n_nodes=9, n_compromised=1)
        strategy = cycle_strategy()
        single = BatchMonteCarlo(model, strategy).run(30_000, rng=1)
        sharded = ShardedBackend(workers=1, shards=3).estimate(
            model, strategy, n_trials=30_000, rng=1
        )
        gap = abs(single.degree_bits - sharded.degree_bits)
        tolerance = 3.0 * (
            single.estimate.std_error + sharded.estimate.std_error
        )
        assert gap <= tolerance


# ---------------------------------------------------------------------- #
# Service, scheduler, registry, CLI                                       #
# ---------------------------------------------------------------------- #


class TestCycleService:
    def _request(self, **overrides) -> EstimateRequest:
        settings = dict(
            n_nodes=9,
            distribution=DistributionSpec(
                "geometric", {"p_forward": 0.6, "minimum": 1, "max_length": 12}
            ),
            path_model=PathModel.CYCLE_ALLOWED.value,
            precision=0.05,
            block_size=5_000,
            max_trials=50_000,
            seed=3,
        )
        settings.update(overrides)
        return EstimateRequest(**settings)

    def test_cycle_request_round_trips_bit_identically(self):
        request = self._request()
        with EstimationService() as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert not cold.from_cache and warm.from_cache
        assert warm.report == cold.report
        with EstimationService() as fresh:
            recomputed = fresh.estimate(request)
        assert not recomputed.from_cache
        assert recomputed.report == cold.report

    def test_path_model_is_part_of_the_digest(self):
        cycle = self._request()
        simple = self._request(path_model=PathModel.SIMPLE.value)
        assert cycle.digest() != simple.digest()
        assert cycle.canonical_dict()["path_model"] == "cycle_allowed"
        rebuilt = EstimateRequest.from_canonical_dict(cycle.canonical_dict())
        assert rebuilt == cycle and rebuilt.digest() == cycle.digest()

    def test_request_builds_cycle_model_and_strategy(self):
        request = self._request()
        assert request.model().path_model is PathModel.CYCLE_ALLOWED
        assert request.strategy().path_model is PathModel.CYCLE_ALLOWED

    def test_cycle_request_accepts_multiple_compromised_nodes(self):
        request = self._request(n_compromised=2)
        assert request.model().n_compromised == 2
        assert request.digest() != self._request().digest()

    def test_adaptive_scheduler_accumulates_cycle_blocks(self):
        model = SystemModel(n_nodes=9, n_compromised=1)
        scheduler = AdaptiveScheduler(
            backend="batch", precision=None, block_size=4_000, max_trials=12_000
        )
        outcome = scheduler.run(model, cycle_strategy(), rng=5)
        assert outcome.report.n_trials == 12_000
        assert outcome.rounds == 3


class TestCycleCLI:
    def test_batch_accepts_named_cycle_strategies(self, capsys):
        assert main([
            "batch", "--n", "15", "--strategy", "crowds-cycles",
            "--trials", "4000", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "cycle_allowed" in output

    def test_estimate_accepts_hordes(self, capsys):
        assert main([
            "estimate", "--n", "15", "--strategy", "hordes",
            "--precision", "0.1", "--block-size", "2000",
            "--max-trials", "8000", "--seed", "2",
        ]) == 0
        assert "Geom" in capsys.readouterr().out

    def test_cycle_with_multiple_compromised_runs_on_the_multi_engine(self, capsys):
        code = main([
            "batch", "--n", "15", "--strategy", "hordes",
            "--trials", "1000", "--compromised", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "cycle_allowed" in captured.out
        assert "C=2" in captured.out

    def test_out_of_range_compromised_exits_2(self, capsys):
        code = main([
            "batch", "--n", "10", "--strategy", "fixed", "--length", "3",
            "--compromised", "20",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_exact_backend_rejects_cycle_strategies_cleanly(self, capsys):
        code = main([
            "batch", "--n", "15", "--strategy", "crowds-cycles",
            "--backend", "exact",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        # The one-line error names the backend that does cover the request.
        assert "--backend batch" in captured.err
        assert "Traceback" not in captured.err

    def test_exact_backend_multi_compromised_error_names_batch(self, capsys):
        code = main([
            "batch", "--n", "15", "--strategy", "uniform",
            "--backend", "exact", "--compromised", "2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--backend batch" in captured.err

    def test_ext_cycle_registered(self):
        assert "ext-cycle" in list_experiments()

    def test_simulate_supports_crowds_and_hordes(self, capsys):
        assert main([
            "simulate", "--n", "10", "--protocol", "crowds", "--trials", "30",
            "--seed", "4",
        ]) == 0
        assert main([
            "simulate", "--n", "10", "--protocol", "hordes", "--trials", "30",
            "--seed", "4",
        ]) == 0


# ---------------------------------------------------------------------- #
# Multiple compromised nodes on cycle paths (the closed roadmap gap)       #
# ---------------------------------------------------------------------- #


def enumerate_degree_via_class_table(model, distribution) -> float:
    """Exact H*(S) through the batch pipeline's classifier and score table.

    Enumerates every (sender, path) outcome, classifies it with the batch
    engines' :func:`cycle_trial_key`, prices each class once through the
    :class:`CycleScoreTable`, and weights by the exact path probabilities.
    Equality with :class:`ExhaustiveAnalyzer` proves both that the class key
    determines the posterior entropy (no two observation-distinct trials
    share a key) and that the per-class scores are exact.
    """
    analyzer = ExhaustiveAnalyzer(model)
    compromised = model.compromised_nodes()
    table = CycleScoreTable(
        model=model,
        distribution=distribution,
        compromised=compromised,
    )
    degree = 0.0
    n = model.n_nodes
    for sender in range(n):
        for length, length_prob in distribution.items():
            paths = list(analyzer._paths(sender, length))
            if not paths:
                continue
            path_prob = length_prob / (n * len(paths))
            for path in paths:
                key = cycle_trial_key(
                    sender,
                    path,
                    length,
                    compromised,
                    model.adversary,
                    model.receiver_compromised,
                )
                entropy, _ = table.score(key)
                degree += path_prob * entropy
    return degree


class TestMultiCompromisedCycles:
    """The fourth engine: cycle-allowed paths with ``C != 1``."""

    @pytest.mark.parametrize("n_compromised", [0, 2, 3])
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_inference_matches_exhaustive(self, n_compromised, adversary):
        model = SystemModel(
            n_nodes=5,
            n_compromised=n_compromised,
            path_model=PathModel.CYCLE_ALLOWED,
            adversary=adversary,
        )
        distribution = UniformLength(0, 3)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        via_inference = enumerate_degree_via_inference(model, distribution)
        assert via_inference == pytest.approx(truth, abs=1e-10)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_inference_matches_exhaustive_honest_receiver(self, adversary):
        model = SystemModel(
            n_nodes=5,
            n_compromised=2,
            path_model=PathModel.CYCLE_ALLOWED,
            adversary=adversary,
            receiver_compromised=False,
        )
        distribution = UniformLength(1, 3)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        via_inference = enumerate_degree_via_inference(model, distribution)
        assert via_inference == pytest.approx(truth, abs=1e-10)

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("receiver_compromised", [True, False])
    def test_class_law_reconstructs_exhaustive_exactly(
        self, adversary, receiver_compromised
    ):
        """Classifier keys + per-class scores reproduce the exact degree.

        This is the exactness guarantee of the batch pipeline at C > 1: the
        sampled estimate differs from the exhaustive degree only by which
        classes the trials happened to hit, never by their entropies.
        """
        model = SystemModel(
            n_nodes=5,
            n_compromised=2,
            path_model=PathModel.CYCLE_ALLOWED,
            adversary=adversary,
            receiver_compromised=receiver_compromised,
        )
        distribution = UniformLength(0, 4)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        via_classes = enumerate_degree_via_class_table(model, distribution)
        assert via_classes == pytest.approx(truth, abs=1e-10)

    def test_class_scores_equal_per_trial_posteriors(self):
        """Spot-check the class law on sampled (not enumerated) trials."""
        model = SystemModel(n_nodes=7, n_compromised=2)
        strategy = cycle_strategy(max_length=8)
        distribution = strategy.effective_distribution(7)
        compromised = frozenset({0, 1})
        table = CycleScoreTable(
            model=model, distribution=distribution, compromised=compromised
        )
        inference = BayesianPathInference(
            model.with_path_model(PathModel.CYCLE_ALLOWED),
            distribution,
            compromised,
        )
        for sender, path in draw_cycle_trials(7, distribution, 800, seed=41):
            key = cycle_trial_key(sender, path, len(path), compromised)
            entropy, _ = table.score(key)
            observation = observation_from_path(sender, path, compromised)
            assert entropy == pytest.approx(
                inference.posterior(observation).entropy_bits, abs=1e-9
            )

    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    @pytest.mark.parametrize("n_compromised", [0, 1, 2, 3])
    def test_representatives_realise_their_keys(
        self, n_compromised, adversary, receiver_compromised
    ):
        """The trial a class is priced from, built from its key alone, has that key."""
        model = SystemModel(
            n_nodes=6,
            n_compromised=n_compromised,
            adversary=adversary,
            receiver_compromised=receiver_compromised,
        )
        compromised = model.compromised_nodes()
        distribution = UniformLength(0, 9)
        table = CycleScoreTable(
            model=model, distribution=distribution, compromised=compromised
        )
        trials = draw_cycle_trials(6, distribution, 3_000, seed=53)
        keys = scalar_histogram(trials, compromised, adversary, receiver_compromised)
        assert len(keys) > (1 if n_compromised else 0)
        for key in keys:
            sender, path = table.representative(key)
            assert path == () or path[0] != sender
            assert all(first != second for first, second in zip(path, path[1:]))
            assert cycle_trial_key(
                sender, path, len(path), compromised, adversary, receiver_compromised
            ) == key

    @pytest.mark.parametrize("adversary", list(AdversaryModel))
    def test_estimate_covers_exhaustive_truth(self, adversary):
        model = SystemModel(n_nodes=5, n_compromised=2, adversary=adversary)
        strategy = cycle_strategy(max_length=5)
        truth = ExhaustiveAnalyzer(
            model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(strategy.distribution)
        report = BatchMonteCarlo(model, strategy).run(40_000, rng=19)
        assert report.estimate.contains(truth, slack=0.01)

    def test_no_compromised_estimate_covers_exhaustive_truth(self):
        model = SystemModel(n_nodes=5, n_compromised=0)
        strategy = cycle_strategy(max_length=5)
        truth = ExhaustiveAnalyzer(
            model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(strategy.distribution)
        report = BatchMonteCarlo(model, strategy).run(20_000, rng=23)
        assert report.estimate.contains(truth, slack=0.01)

    def test_array_kernel_matches_the_scalar_rule(self):
        """Multi-node key counts equal ``cycle_trial_key`` per row."""
        trials = draw_cycle_trials(5, UniformLength(0, 7), 3_000, seed=47)
        compromised = frozenset({1, 3})
        for adversary, receiver_compromised, padding in itertools.product(
            AdversaryModel, (True, False), PADDINGS
        ):
            keyed = classify_cycle_arrays(
                *cycle_arrays(trials, padding),
                compromised,
                adversary,
                receiver_compromised,
            )
            assert keyed == scalar_histogram(
                trials, compromised, adversary, receiver_compromised
            )
            assert sum(keyed.values()) == len(trials)

    def test_sharded_bit_deterministic_per_seed_and_shards(self):
        model = SystemModel(n_nodes=6, n_compromised=2)
        strategy = cycle_strategy()
        backend = ShardedBackend(workers=1, shards=4)
        first = backend.estimate(model, strategy, n_trials=16_000, rng=29)
        second = backend.estimate(model, strategy, n_trials=16_000, rng=29)
        assert first.estimate == second.estimate
        assert first.identification_rate == second.identification_rate
        assert first.mean_path_length == second.mean_path_length

    def test_service_round_trips_multi_compromised_cycles(self):
        request = EstimateRequest(
            n_nodes=6,
            n_compromised=2,
            distribution=DistributionSpec(
                "geometric", {"p_forward": 0.6, "minimum": 1, "max_length": 8}
            ),
            path_model=PathModel.CYCLE_ALLOWED.value,
            precision=0.05,
            block_size=4_000,
            max_trials=24_000,
            seed=7,
        )
        truth = ExhaustiveAnalyzer(request.model()).anonymity_degree(
            request.distribution.build()
        )
        with EstimationService() as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert not cold.from_cache and warm.from_cache
        assert warm.report == cold.report
        assert cold.report.estimate.contains(truth, slack=0.02)
        with EstimationService() as fresh:
            recomputed = fresh.estimate(request)
        assert not recomputed.from_cache
        assert recomputed.report == cold.report


class TestCanonicalGapOrder:
    """A full-Bayes cycle class's entropy depends on its gap counts alone.

    This licenses the canonical keys: the classifiers sort a walk's gaps
    (adjacent, bridged, open), so walks whose gaps differ only in order share
    one class and one price.
    """

    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize("n_compromised", [1, 2, 3])
    @pytest.mark.parametrize("n_nodes", [30, 100])
    def test_every_gap_order_prices_alike(
        self, n_nodes, n_compromised, receiver_compromised
    ):
        model = SystemModel(
            n_nodes=n_nodes,
            n_compromised=n_compromised,
            receiver_compromised=receiver_compromised,
        )
        compromised = model.compromised_nodes()
        table = CycleScoreTable(
            model=model,
            distribution=GeometricLength(p_forward=0.75, minimum=1),
            compromised=compromised,
        )
        canonical_order = (ADJACENT, True, False)
        kinds = canonical_order if n_compromised > 1 else (True, False)
        tails = ("recv", "eq", "ne") if receiver_compromised else ("recv", "open")
        generator = np.random.default_rng([n_nodes, n_compromised, receiver_compromised])
        for visits in range(2, 8):
            gaps = [kinds[index] for index in generator.integers(0, len(kinds), visits - 1)]
            if n_compromised > 1 and ADJACENT not in gaps:
                gaps[0] = ADJACENT
            last = tails[generator.integers(0, len(tails))]
            canonical = ("fb", visits, tuple(sorted(gaps, key=canonical_order.index)), last)
            entropy, identified = table.score(canonical)
            for order in set(itertools.permutations(gaps)):
                key = ("fb", visits, order, last)
                price, flag = table.score(key)
                assert price == pytest.approx(entropy, rel=0, abs=1e-12)
                assert flag == identified
                # The scalar rule keys any walk of these gaps canonically.
                sender, path = table.representative(key)
                assert cycle_trial_key(
                    sender,
                    path,
                    len(path),
                    compromised,
                    receiver_compromised=receiver_compromised,
                ) == canonical


class TestDeployedCycleStrategiesRun:
    @pytest.mark.parametrize(
        "name", ["crowds-cycles", "onion-routing-2-cycles", "hordes"]
    )
    def test_catalogue_strategy_runs_on_the_fast_path(self, name):
        strategy = deployed_system_strategies(include_cycle_variants=True)[name]
        model = SystemModel(n_nodes=20, n_compromised=1)
        report = estimate_anonymity(
            model, strategy, n_trials=5_000, rng=8, backend="batch"
        )
        assert report.n_trials == 5_000
        assert 0.0 < report.degree_bits < model.max_entropy
