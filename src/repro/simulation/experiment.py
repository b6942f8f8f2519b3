"""Monte-Carlo estimation of the anonymity degree.

The closed-form engine of :mod:`repro.core.anonymity` covers one compromised
node on simple paths.  Everything else — several compromised nodes, large
systems, cycle-allowed protocols driven by their real forwarding logic — is
estimated here by sampling:

1. draw a sender uniformly at random (the paper's a-priori assumption);
2. run the system (either the full discrete-event engine with a real protocol,
   or the lightweight strategy-level sampler that skips the transport);
3. hand the resulting observation to the exact Bayesian inference engine and
   record the posterior entropy;
4. average the per-trial entropies: the sample mean is an unbiased estimator
   of ``H*(S) = E[H(sender | observation)]``, reported with a confidence
   interval.

Note that only the *observation* is sampled; the posterior for each
observation is computed exactly, so the estimator's variance comes purely from
the outer expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.inference import BayesianPathInference
from repro.adversary.observation import observation_from_path
from repro.core.model import SystemModel
from repro.core.results import IDENTIFIED_THRESHOLD, MonteCarloReport, summarize_samples
from repro.distributions.base import PathLengthDistribution
from repro.routing.strategies import PathSelectionStrategy
from repro.simulation.engine import AnonymousCommunicationSystem
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "StrategyMonteCarlo",
    "ProtocolMonteCarlo",
]


@dataclass
class StrategyMonteCarlo:
    """Estimate ``H*`` for a path-selection strategy without running transport.

    This sampler draws paths directly from the strategy and converts them to
    observations with :func:`observation_from_path`; it is the fast path used
    by benchmarks that need many thousands of trials.
    """

    model: SystemModel
    strategy: PathSelectionStrategy
    compromised: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if self.compromised is None:
            self.compromised = self.model.compromised_nodes()
        self.compromised = frozenset(self.compromised)

    def run(self, n_trials: int, rng: RandomSource = None) -> MonteCarloReport:
        """Run ``n_trials`` independent single-message experiments."""
        n_trials = check_positive_int(n_trials, "n_trials")
        generator = ensure_rng(rng)
        distribution = self.strategy.effective_distribution(self.model.n_nodes)
        # The inference engine keys its path-counting rules off the model's
        # path_model; align it with the strategy actually being sampled.
        inference = BayesianPathInference(
            self.model.with_path_model(self.strategy.path_model),
            distribution,
            self.compromised,
        )

        entropies: list[float] = []
        lengths: list[int] = []
        identified = 0
        for _ in range(n_trials):
            sender = int(generator.integers(0, self.model.n_nodes))
            path = self.strategy.build_path(
                sender, self.model.n_nodes, generator, topology=self.model.topology
            )
            observation = observation_from_path(
                sender,
                path.intermediates,
                self.compromised,
                receiver_compromised=self.model.receiver_compromised,
            )
            posterior = inference.posterior(observation)
            entropies.append(posterior.entropy_bits)
            lengths.append(path.length)
            if posterior.max_probability >= IDENTIFIED_THRESHOLD:
                identified += 1

        return MonteCarloReport(
            estimate=summarize_samples(entropies),
            n_trials=n_trials,
            distribution=distribution.name,
            model=self.model,
            mean_path_length=sum(lengths) / len(lengths),
            identification_rate=identified / n_trials,
        )


@dataclass
class ProtocolMonteCarlo:
    """Estimate ``H*`` by driving a real protocol through the discrete-event engine.

    Every trial builds a fresh system instance (so protocol state such as
    Crowds' static paths does not leak across trials), transmits one message
    from a uniformly random sender, and scores the adversary's posterior
    entropy for the observation the agents collected.
    """

    model: SystemModel
    protocol_factory: "callable"
    inference_distribution: PathLengthDistribution | None = None

    def run(self, n_trials: int, rng: RandomSource = None) -> MonteCarloReport:
        """Run ``n_trials`` end-to-end transmissions and score each observation."""
        n_trials = check_positive_int(n_trials, "n_trials")
        generator = ensure_rng(rng)

        probe_protocol = self.protocol_factory()
        strategy = probe_protocol.strategy()
        distribution = self.inference_distribution
        if distribution is None:
            distribution = strategy.effective_distribution(self.model.n_nodes)
        inference = BayesianPathInference(
            self.model.with_path_model(strategy.path_model),
            distribution,
            self.model.compromised_nodes(),
        )

        entropies: list[float] = []
        lengths: list[int] = []
        identified = 0
        for _ in range(n_trials):
            system = AnonymousCommunicationSystem(
                model=self.model, protocol=self.protocol_factory()
            )
            sender = int(generator.integers(0, self.model.n_nodes))
            outcome = system.send(sender, payload="probe", rng=generator)
            posterior = inference.posterior(outcome.observation)
            entropies.append(posterior.entropy_bits)
            lengths.append(outcome.delivery.path_length)
            if posterior.max_probability >= IDENTIFIED_THRESHOLD:
                identified += 1

        return MonteCarloReport(
            estimate=summarize_samples(entropies),
            n_trials=n_trials,
            distribution=distribution.name,
            model=self.model,
            mean_path_length=sum(lengths) / len(lengths),
            identification_rate=identified / n_trials,
        )
