"""Tests for the general Bayesian inference engine and long-term attacks."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import repro.adversary.inference as inference_module
from repro.adversary.attacks import PredecessorAttack
from repro.adversary.inference import BayesianPathInference, SenderPosterior
from repro.adversary.observation import (
    RECEIVER,
    HopReport,
    Observation,
    ReceiverReport,
    observation_from_path,
)
from repro.batch.estimator import BatchMonteCarlo
from repro.core.enumeration import enumerate_anonymity_degree
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.distributions import FixedLength, UniformLength
from repro.exceptions import ConfigurationError
from repro.utils.mathx import falling_factorial


def expected_degree_via_inference(n_nodes, distribution, n_compromised, adversary):
    """Exact H* computed by weighting the inference engine over every path."""
    model = SystemModel(n_nodes=n_nodes, n_compromised=n_compromised, adversary=adversary)
    compromised = model.compromised_nodes()
    inference = BayesianPathInference(model, distribution, compromised)
    total = 0.0
    for sender in range(n_nodes):
        others = [node for node in range(n_nodes) if node != sender]
        for length, length_prob in distribution.items():
            denominator = falling_factorial(n_nodes - 1, length)
            for path in itertools.permutations(others, length):
                observation = observation_from_path(sender, path, compromised)
                posterior = inference.posterior(observation)
                total += length_prob / (n_nodes * denominator) * posterior.entropy_bits
    return total


class TestSenderPosterior:
    def test_basic_queries(self):
        posterior = SenderPosterior({0: 0.5, 1: 0.25, 2: 0.25})
        assert posterior.probability(0) == 0.5
        assert posterior.probability(9) == 0.0
        assert posterior.most_likely == 0
        assert posterior.max_probability == 0.5
        assert posterior.support_size == 3
        assert posterior.entropy_bits == pytest.approx(1.5)
        assert posterior.as_sorted_items()[0] == (0, 0.5)


class TestInferenceConstruction:
    def test_cycle_paths_accepted_for_one_compromised_node(self):
        model = SystemModel(n_nodes=8, path_model=PathModel.CYCLE_ALLOWED)
        inference = BayesianPathInference(model, FixedLength(3))
        assert inference.model.path_model is PathModel.CYCLE_ALLOWED

    def test_cycle_paths_accepted_for_multiple_compromised(self):
        # The C > 1 gate fell with the honest-subgraph walk counts: exact
        # cycle posteriors now cover any compromised count.
        model = SystemModel(
            n_nodes=8, n_compromised=2, path_model=PathModel.CYCLE_ALLOWED
        )
        inference = BayesianPathInference(model, FixedLength(3))
        observation = observation_from_path(4, (5, 0, 1), frozenset({0, 1}))
        posterior = inference.posterior(observation)
        assert posterior.probability(0) == 0.0
        assert posterior.probability(1) == 0.0
        assert sum(posterior.probabilities.values()) == pytest.approx(1.0)

    def test_cycle_distribution_not_length_capped(self):
        # Cycle paths have no simple-path feasibility cap: lengths beyond
        # N - 1 are fine.
        model = SystemModel(n_nodes=4, path_model=PathModel.CYCLE_ALLOWED)
        inference = BayesianPathInference(model, FixedLength(9))
        assert inference.distribution.max_length == 9

    def test_rejects_too_long_distribution(self):
        model = SystemModel(n_nodes=6)
        with pytest.raises(ConfigurationError):
            BayesianPathInference(model, FixedLength(7))

    def test_rejects_wrong_compromised_count(self):
        model = SystemModel(n_nodes=8, n_compromised=2)
        with pytest.raises(ConfigurationError):
            BayesianPathInference(model, FixedLength(3), compromised={0})

    def test_rejects_out_of_range_compromised(self):
        model = SystemModel(n_nodes=8, n_compromised=1)
        with pytest.raises(ConfigurationError):
            BayesianPathInference(model, FixedLength(3), compromised={99})


class TestPosteriorProperties:
    def test_posterior_sums_to_one(self):
        model = SystemModel(n_nodes=10, n_compromised=2)
        inference = BayesianPathInference(model, UniformLength(1, 5))
        observation = observation_from_path(5, (3, 0, 7), model.compromised_nodes())
        posterior = inference.posterior(observation)
        assert sum(posterior.probabilities.values()) == pytest.approx(1.0)

    def test_true_sender_has_positive_posterior(self):
        # The assumed length distribution must cover every path the system can
        # actually generate (here lengths 0 through 5), otherwise observations
        # of the uncovered lengths are "impossible" and the posterior rightly
        # excludes the true sender.
        model = SystemModel(n_nodes=10, n_compromised=2)
        inference = BayesianPathInference(model, UniformLength(0, 5))
        for path in [(), (4,), (0, 4, 7), (4, 0, 1, 6)]:
            observation = observation_from_path(5, path, model.compromised_nodes())
            assert inference.posterior(observation).probability(5) > 0.0

    def test_compromised_sender_identified(self):
        model = SystemModel(n_nodes=10, n_compromised=2)
        inference = BayesianPathInference(model, UniformLength(1, 5))
        observation = observation_from_path(0, (4, 7), model.compromised_nodes())
        posterior = inference.posterior(observation)
        assert posterior.probability(0) == 1.0
        assert posterior.entropy_bits == 0.0

    def test_compromised_candidates_excluded_when_silent(self):
        model = SystemModel(n_nodes=10, n_compromised=2)
        inference = BayesianPathInference(model, UniformLength(1, 5))
        observation = observation_from_path(5, (3, 4, 7), model.compromised_nodes())
        posterior = inference.posterior(observation)
        assert posterior.probability(0) == 0.0
        assert posterior.probability(1) == 0.0

    def test_first_hop_compromised_with_fixed_length_one_identifies_sender(self):
        model = SystemModel(n_nodes=10, n_compromised=1)
        inference = BayesianPathInference(model, FixedLength(1))
        observation = observation_from_path(5, (0,), {0})
        posterior = inference.posterior(observation)
        assert posterior.probability(5) == pytest.approx(1.0)

    def test_position_ambiguity_with_longer_fixed_length(self):
        # With F(4) and the compromised node somewhere in the middle, the
        # observed predecessor is the sender with probability 1/(l-2) = 1/2.
        model = SystemModel(n_nodes=10, n_compromised=1)
        inference = BayesianPathInference(model, FixedLength(4))
        observation = observation_from_path(5, (3, 0, 7, 6), {0})
        posterior = inference.posterior(observation)
        assert posterior.probability(3) == pytest.approx(0.5)
        assert posterior.probability(5) == pytest.approx(0.5 / 6)


class TestInferenceMatchesEnumeration:
    @pytest.mark.parametrize("n_compromised", [1, 2, 3])
    def test_full_bayes(self, n_compromised):
        distribution = UniformLength(1, 3)
        via_inference = expected_degree_via_inference(
            6, distribution, n_compromised, AdversaryModel.FULL_BAYES
        )
        via_enumeration = enumerate_anonymity_degree(
            6, distribution, n_compromised=n_compromised
        )
        assert via_inference == pytest.approx(via_enumeration, abs=1e-10)

    @pytest.mark.parametrize("adversary", [AdversaryModel.POSITION_AWARE, AdversaryModel.PREDECESSOR_ONLY])
    def test_weak_and_strong_variants(self, adversary):
        distribution = UniformLength(1, 4)
        via_inference = expected_degree_via_inference(6, distribution, 2, adversary)
        via_enumeration = enumerate_anonymity_degree(
            6, distribution, n_compromised=2, adversary=adversary
        )
        assert via_inference == pytest.approx(via_enumeration, abs=1e-10)


def unreduced_posterior(inference, observation):
    """Oracle: the candidate loop without orbit reduction.

    Swaps the instance's orbit pricing for the plain loop that calls
    ``_candidate_likelihood`` / ``_position_aware_likelihood`` once for every
    non-excluded candidate, in candidate order.
    """
    n = inference.model.n_nodes

    def every_candidate(zero, named, likelihood):
        return {
            candidate: 0.0 if candidate in zero else likelihood(candidate)
            for candidate in range(n)
        }

    inference._orbit_weights = every_candidate
    try:
        return inference.posterior(observation)
    finally:
        del inference._orbit_weights


def sample_observations(model, distribution, rng, count):
    """Seeded observations with compromised nodes planted on the path."""
    n = model.n_nodes
    compromised = sorted(model.compromised_nodes())
    honest = [node for node in range(n) if node not in compromised]
    lengths = [length for length, _ in distribution.items()]
    for _ in range(count):
        sender = rng.choice(
            compromised if compromised and rng.random() < 0.1 else honest
        )
        length = rng.choice(lengths)
        spare_compromised = [node for node in compromised if node != sender]
        spare_honest = [node for node in honest if node != sender]
        k = rng.randint(
            max(0, length - len(spare_honest)), min(len(spare_compromised), length)
        )
        path = rng.sample(spare_compromised, k) + rng.sample(spare_honest, length - k)
        rng.shuffle(path)
        yield observation_from_path(
            sender,
            path,
            model.compromised_nodes(),
            receiver_compromised=model.receiver_compromised,
        )


def accumulator_digest(accumulator):
    """Short sha256 over every class's key, count, entropy bits, and flag."""
    rows = sorted(
        (repr(key), count, float(entropy).hex(), bool(identified))
        for key, (count, entropy, identified) in accumulator.classes.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class TestOrbitReduction:
    """Orbit-reduced pricing is bit-identical to the per-candidate loop."""

    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize(
        "adversary", [AdversaryModel.FULL_BAYES, AdversaryModel.POSITION_AWARE]
    )
    @pytest.mark.parametrize("n_compromised", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("n_nodes", [9, 20, 100])
    def test_posteriors_equal_the_unreduced_loop(
        self, n_nodes, n_compromised, adversary, receiver_compromised
    ):
        model = SystemModel(
            n_nodes=n_nodes,
            n_compromised=n_compromised,
            adversary=adversary,
            receiver_compromised=receiver_compromised,
        )
        distribution = UniformLength(0, 8)
        inference = BayesianPathInference(model, distribution)
        rng = random.Random(n_nodes * 100 + n_compromised)
        for observation in sample_observations(model, distribution, rng, 30):
            posterior = inference.posterior(observation)
            oracle = unreduced_posterior(inference, observation)
            assert list(posterior.probabilities.items()) == list(
                oracle.probabilities.items()
            )
            assert posterior.entropy_bits == oracle.entropy_bits

    def test_position_aware_fallback_to_full_bayes(self):
        # A hand-built report pinning position 3 under a length law capped at
        # 2 zeroes every position-aware weight, so the branch falls back to
        # the position-free full-Bayes posterior.
        model = SystemModel(
            n_nodes=20, n_compromised=1, adversary=AdversaryModel.POSITION_AWARE
        )
        inference = BayesianPathInference(model, UniformLength(1, 2))
        observation = Observation(
            hop_reports=(
                HopReport(1.0, node=0, predecessor=5, successor=RECEIVER, position=3),
            ),
            receiver_report=ReceiverReport(2.0, predecessor=0),
        )
        posterior = inference.posterior(observation)
        oracle = unreduced_posterior(inference, observation)
        fallback = inference._posterior_full_bayes(observation.without_positions())
        assert list(posterior.probabilities.items()) == list(
            oracle.probabilities.items()
        )
        assert posterior == fallback
        assert posterior.probability(5) > 0.0

    @pytest.mark.parametrize("receiver_compromised", [True, False])
    @pytest.mark.parametrize("n_compromised", [1, 3, 5])
    def test_full_bayes_prices_each_orbit_once(
        self, monkeypatch, n_compromised, receiver_compromised
    ):
        calls = []
        original = inference_module.count_arrangements

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(inference_module, "count_arrangements", counting)
        model = SystemModel(
            n_nodes=100,
            n_compromised=n_compromised,
            receiver_compromised=receiver_compromised,
        )
        distribution = UniformLength(0, 8)
        support = len(list(distribution.items()))
        inference = BayesianPathInference(model, distribution)
        rng = random.Random(7)
        for observation in sample_observations(model, distribution, rng, 40):
            calls.clear()
            inference.posterior(observation)
            named_honest = (
                observation.to_fragments().observed_on_path - inference.compromised
            )
            assert len(calls) <= (len(named_honest) + 1) * support

    # N = 100, U(2, 8), 20 000 trials at seed 13 -> (length sum, classes,
    # mean entropy as float.hex, accumulator_digest).  First recorded from
    # the per-candidate loop before orbit reduction; re-recorded when the
    # arrangement engine began to price each canonical observation class
    # once, from its key alone.
    GOLDEN = {
        (2, AdversaryModel.FULL_BAYES, True): (
            100053, 14, "0x1.98f58e675fec1p+2", "68fc4ddcfe8565e6"
        ),
        (2, AdversaryModel.FULL_BAYES, False): (
            100053, 10, "0x1.99deec0da5c43p+2", "800f6db0fe45e2b7"
        ),
        (2, AdversaryModel.POSITION_AWARE, True): (
            100053, 48, "0x1.94c423b03152cp+2", "b6ae8d9085ca445a"
        ),
        (3, AdversaryModel.FULL_BAYES, True): (
            100053, 16, "0x1.910daf94f9592p+2", "d45dc5e3c15513e6"
        ),
        (3, AdversaryModel.FULL_BAYES, False): (
            100053, 12, "0x1.9209538dc3d36p+2", "bd2ac5f3394f0793"
        ),
        (3, AdversaryModel.POSITION_AWARE, True): (
            100053, 74, "0x1.8b09217b57f69p+2", "1966a49970fa8687"
        ),
        (5, AdversaryModel.FULL_BAYES, True): (
            100053, 27, "0x1.8226df18ef0fbp+2", "b1700e9124f4db3a"
        ),
        (5, AdversaryModel.FULL_BAYES, False): (
            100053, 23, "0x1.8326b8d46d1e0p+2", "ea2438cb83e37e0d"
        ),
        (5, AdversaryModel.POSITION_AWARE, True): (
            100053, 104, "0x1.787a3b302d29bp+2", "9aa20ce522f52368"
        ),
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN, key=repr))
    def test_golden_accumulators(self, config):
        n_compromised, adversary, receiver_compromised = config
        model = SystemModel(
            n_nodes=100,
            n_compromised=n_compromised,
            adversary=adversary,
            receiver_compromised=receiver_compromised,
        )
        accumulator = BatchMonteCarlo.from_distribution(
            model, UniformLength(2, 8)
        ).run_accumulate(20_000, rng=13)
        mean, _ = accumulator.grouped_moments()
        assert (
            accumulator.length_sum,
            len(accumulator.classes),
            mean.hex(),
            accumulator_digest(accumulator),
        ) == self.GOLDEN[config]


def scalar_truncated_convolution(a, b, max_edges):
    """The scalar double loop the array convolution replaced, as its reference."""
    out = [0.0] * (max_edges + 1)
    for i, x in enumerate(a):
        if i > max_edges:
            break
        if x == 0.0:
            continue
        for j, y in enumerate(b):
            if i + j > max_edges:
                break
            out[i + j] += x * y
    return out


#: Non-negative walk-count-like series with exact zeros among the terms.
SERIES = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
    max_size=40,
)


class TestTruncatedConvolution:
    @given(SERIES, SERIES, st.integers(min_value=-4, max_value=4))
    def test_bits_equal_the_scalar_double_loop(self, a, b, shift):
        """Each output is the scalar loop's float: same products, same order.

        ``shift`` places ``max_edges`` below, at and above the full length
        ``len(a) + len(b) - 2`` of the untruncated convolution.
        """
        max_edges = max(0, len(a) + len(b) - 2 + shift)
        result = inference_module._truncated_convolution(a, b, max_edges)
        expected = scalar_truncated_convolution(a, b, max_edges)
        assert all(type(value) is float for value in result)
        assert len(result) == len(expected) == max_edges + 1
        for got, want in zip(result, expected):
            assert got == want

    @given(SERIES, SERIES, st.integers(min_value=0, max_value=100))
    def test_bits_equal_at_any_budget(self, a, b, max_edges):
        assert inference_module._truncated_convolution(
            a, b, max_edges
        ) == scalar_truncated_convolution(a, b, max_edges)


class TestPredecessorAttack:
    def test_repeated_observations_identify_the_sender(self):
        attack = PredecessorAttack()
        sender = 7
        compromised = {0, 1}
        # The sender's neighbour on the path is the sender itself whenever the
        # first intermediate node is compromised; feed a biased stream of
        # observations mimicking that.
        paths = [(0, 3, 4), (2, 3, 4), (1, 5, 6), (0, 2, 5), (3, 4, 5)]
        for path in paths:
            attack.ingest(observation_from_path(sender, path, compromised))
        assert attack.rounds_observed == len(paths)
        assert attack.suspect() == sender
        assert attack.score(sender) == pytest.approx(3 / 5)

    def test_no_evidence_gives_uniform_entropy(self):
        attack = PredecessorAttack()
        assert attack.suspect() is None
        assert attack.posterior_entropy_bits(8) == pytest.approx(3.0)

    def test_origin_observation_counts_directly(self):
        attack = PredecessorAttack()
        attack.ingest(Observation(origin_node=4))
        assert attack.suspect() == 4
