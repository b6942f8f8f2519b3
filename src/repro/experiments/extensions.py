"""Extension experiments beyond the paper's figures.

The paper's numerical section fixes one compromised node and a full-Bayes
adversary.  The machinery built for the reproduction supports much more, and
these experiments exercise it:

* ``compromised_sweep`` — how the optimal fixed path length and the achievable
  anonymity degree degrade as more nodes are compromised (exact, by
  exhaustive enumeration on a small system, plus Monte-Carlo on a large one);
* ``adversary_ablation`` — the same strategies under the three adversary
  models (full-Bayes, position-aware, predecessor-only);
* ``protocol_comparison`` — ranking of the deployed systems surveyed in
  Section 2 by the anonymity degree of their path-length strategies;
* ``simulation_validation`` — the discrete-event simulator (real protocols,
  real message passing, real adversary agents) reproduces the closed-form
  anonymity degree within Monte-Carlo confidence intervals;
* ``predecessor_attack_rounds`` — how quickly repeated path formation (the
  predecessor attack of Wright et al., the paper's reference [23]) erodes the
  single-message anonymity of a Crowds-style system.

The estimator engines themselves (batch, sharded, cycle, topology and the
adaptive service) are checked against their exact sources by the test suite
(``tests/test_batch.py``, ``test_sharded.py``, ``test_cycle.py``,
``test_topology.py`` and ``test_service.py``), not by an experiment.
"""

from __future__ import annotations

from repro.adversary.attacks import PredecessorAttack
from repro.analysis.compare import compare_deployed_systems
from repro.analysis.sweep import SweepResult, SweepSeries
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.core.optimizer import best_fixed_length
from repro.distributions import FixedLength
from repro.experiments.base import PAPER_N_COMPROMISED, PAPER_N_NODES, ExperimentData
from repro.routing.strategies import deployed_system_strategies
from repro.utils.rng import ensure_rng

# The experiments that drive the discrete-event simulator import it (and the
# protocols) in their own bodies, so the registry, and with it the CLI, loads
# without them.

__all__ = [
    "compromised_sweep",
    "adversary_ablation",
    "protocol_comparison",
    "simulation_validation",
    "predecessor_attack_rounds",
]


def compromised_sweep(
    small_n: int = 8,
    large_n: int = 60,
    compromised_counts: tuple[int, ...] = (1, 2, 3),
    mc_trials: int = 1500,
    seed: int = 2002,
) -> ExperimentData:
    """Effect of the number of compromised nodes on the anonymity degree."""
    from repro.simulation.experiment import StrategyMonteCarlo

    lengths = list(range(1, small_n))
    series = []
    for c in compromised_counts:
        exhaustive = ExhaustiveAnalyzer(SystemModel(n_nodes=small_n, n_compromised=c))
        values = [exhaustive.anonymity_degree(FixedLength(length)) for length in lengths]
        series.append(SweepSeries(f"exact N={small_n}, C={c}", tuple(values)))
    sweep = SweepResult(
        x_label="fixed path length l",
        x_values=tuple(float(length) for length in lengths),
        series=tuple(series),
    )

    # Monte-Carlo spot checks on a larger system for C=2 and C=3.
    rng = ensure_rng(seed)
    mc_points = {}
    for c in compromised_counts:
        if c == 1:
            continue
        model = SystemModel(n_nodes=large_n, n_compromised=c)
        strategy = deployed_system_strategies()["freedom"]
        report = StrategyMonteCarlo(model, strategy).run(mc_trials, rng=rng)
        mc_points[f"MC H* of F(3), N={large_n}, C={c}"] = round(report.degree_bits, 4)

    curves = {entry.label: entry.values for entry in series}
    first = curves[f"exact N={small_n}, C={compromised_counts[0]}"]
    last = curves[f"exact N={small_n}, C={compromised_counts[-1]}"]
    checks = {
        "more compromised nodes always reduce the anonymity degree": all(
            low <= high + 1e-12 for low, high in zip(last, first)
        ),
    }
    key_points = {
        f"best fixed length, C={c}": max(
            range(len(lengths)),
            key=lambda i, c=c: curves[f"exact N={small_n}, C={c}"][i],
        )
        + 1
        for c in compromised_counts
    }
    key_points.update(mc_points)
    return ExperimentData(
        "ext-c",
        f"Extension: effect of the number of compromised nodes (exact N={small_n})",
        sweep,
        checks,
        key_points,
    )


def adversary_ablation(
    n_nodes: int = PAPER_N_NODES, lengths: tuple[int, ...] = (1, 2, 3, 5, 10, 20, 40, 60, 80, 99)
) -> ExperimentData:
    """Anonymity degree of fixed-length strategies under the three adversary models."""
    series = []
    for adversary in AdversaryModel:
        model = SystemModel(
            n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED, adversary=adversary
        )
        analyzer = AnonymityAnalyzer(model)
        values = [analyzer.anonymity_degree(FixedLength(length)) for length in lengths]
        series.append(SweepSeries(adversary.value, tuple(values)))
    sweep = SweepResult(
        x_label="fixed path length l",
        x_values=tuple(float(length) for length in lengths),
        series=tuple(series),
    )
    curves = {entry.label: entry.values for entry in series}
    checks = {
        "the position-aware adversary is at least as strong as full Bayes": all(
            pos <= full + 1e-9
            for pos, full in zip(
                curves[AdversaryModel.POSITION_AWARE.value],
                curves[AdversaryModel.FULL_BAYES.value],
            )
        ),
        "the predecessor-only adversary is at most as strong as full Bayes": all(
            weak >= full - 1e-9
            for weak, full in zip(
                curves[AdversaryModel.PREDECESSOR_ONLY.value],
                curves[AdversaryModel.FULL_BAYES.value],
            )
        ),
    }
    probe_index = len(lengths) // 2
    key_points = {
        f"H* gap full-Bayes vs position-aware at l={lengths[probe_index]}": round(
            curves[AdversaryModel.FULL_BAYES.value][probe_index]
            - curves[AdversaryModel.POSITION_AWARE.value][probe_index],
            4,
        ),
    }
    return ExperimentData(
        "ext-adv",
        f"Extension: adversary-model ablation (N={n_nodes}, C=1)",
        sweep,
        checks,
        key_points,
    )


def protocol_comparison(n_nodes: int = PAPER_N_NODES) -> ExperimentData:
    """Rank the deployed systems of Section 2 by the anonymity of their strategies."""
    model = SystemModel(n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED)
    rows = compare_deployed_systems(model)
    scan = best_fixed_length(model)

    sweep = SweepResult(
        x_label="rank",
        x_values=tuple(float(i + 1) for i in range(len(rows))),
        series=(
            SweepSeries("H*(S) bits", tuple(row.degree_bits for row in rows)),
            SweepSeries("E[L]", tuple(row.expected_length for row in rows)),
        ),
    )
    by_name = {row.name: row for row in rows}
    checks = {
        "the bottom of the ranking is a short fixed-length strategy": (
            rows[-1].name in ("Anonymizer", "LPWA", "Freedom")
        ),
        "Onion Routing I (5 hops) beats Freedom (3 hops)": (
            by_name["Onion Routing I"].degree_bits >= by_name["Freedom"].degree_bits - 1e-12
        ),
        "no deployed system reaches the optimal fixed-length strategy": all(
            row.degree_bits <= scan.best_degree + 1e-9 for row in rows
        ),
        "every deployed system leaves measurable anonymity on the table": (
            scan.best_degree - rows[0].degree_bits > 1e-4
        ),
    }
    key_points = {
        "ranking (best to worst)": " > ".join(row.name for row in rows),
        "optimal fixed length for comparison": scan.best_length,
        "H* of the optimal fixed-length strategy": round(scan.best_degree, 4),
        "H* of the best deployed strategy": round(rows[0].degree_bits, 4),
    }
    return ExperimentData(
        "ext-proto",
        f"Extension: deployed-system strategies ranked by anonymity degree (N={n_nodes})",
        sweep,
        checks,
        key_points,
    )


def simulation_validation(
    n_nodes: int = 40,
    trials: int = 1200,
    seed: int = 77,
) -> ExperimentData:
    """The full discrete-event simulator reproduces the closed-form degrees."""
    from repro.protocols import FreedomProtocol, OnionRoutingI
    from repro.simulation.experiment import ProtocolMonteCarlo, StrategyMonteCarlo

    model = SystemModel(n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED)
    analyzer = AnonymityAnalyzer(model)
    rng = ensure_rng(seed)

    cases = {
        "Freedom (F(3))": (lambda: FreedomProtocol(n_nodes), FixedLength(3)),
        "Onion Routing I (F(5))": (lambda: OnionRoutingI(n_nodes), FixedLength(5)),
    }
    labels = []
    simulated = []
    exact = []
    within = []
    for label, (factory, distribution) in cases.items():
        report = ProtocolMonteCarlo(model, factory).run(trials, rng=rng)
        reference = analyzer.anonymity_degree(distribution)
        labels.append(label)
        simulated.append(report.degree_bits)
        exact.append(reference)
        within.append(report.estimate.contains(reference, slack=0.02))

    # Strategy-level sampling for a variable-length strategy.
    strategy = deployed_system_strategies()["pipenet"]
    report = StrategyMonteCarlo(model, strategy).run(trials, rng=rng)
    reference = analyzer.anonymity_degree(strategy.effective_distribution(n_nodes))
    labels.append("PipeNet (two-point)")
    simulated.append(report.degree_bits)
    exact.append(reference)
    within.append(report.estimate.contains(reference, slack=0.02))

    sweep = SweepResult(
        x_label="case index",
        x_values=tuple(float(i) for i in range(len(labels))),
        series=(
            SweepSeries("simulated H*", tuple(simulated)),
            SweepSeries("closed-form H*", tuple(exact)),
        ),
    )
    checks = {
        f"simulation matches the closed form for {label}": ok
        for label, ok in zip(labels, within)
    }
    key_points = {
        label: f"simulated {sim:.4f} vs exact {ref:.4f}"
        for label, sim, ref in zip(labels, simulated, exact)
    }
    return ExperimentData(
        "ext-sim",
        f"Extension: discrete-event simulation vs closed form (N={n_nodes}, {trials} trials)",
        sweep,
        checks,
        key_points,
    )


def predecessor_attack_rounds(
    n_nodes: int = 40,
    n_compromised: int = 4,
    rounds: int = 200,
    seed: int = 11,
) -> ExperimentData:
    """Repeated path formation against Crowds: the predecessor attack."""
    from repro.protocols import CrowdsProtocol
    from repro.simulation.engine import AnonymousCommunicationSystem

    model = SystemModel(n_nodes=n_nodes, n_compromised=n_compromised)
    rng = ensure_rng(seed)
    system = AnonymousCommunicationSystem(
        model=model, protocol=CrowdsProtocol(n_nodes, p_forward=0.66)
    )
    true_sender = n_compromised + 1  # an honest node
    attack = PredecessorAttack()
    checkpoints = []
    scores = []
    correct = []
    for round_index in range(1, rounds + 1):
        outcome = system.send(true_sender, rng=rng)
        attack.ingest(outcome.observation)
        if round_index in (1, 5, 10, 25, 50, 100, rounds):
            checkpoints.append(round_index)
            scores.append(attack.score(true_sender))
            correct.append(float(attack.suspect() == true_sender))

    sweep = SweepResult(
        x_label="rounds observed",
        x_values=tuple(float(c) for c in checkpoints),
        series=(
            SweepSeries("score of the true sender", tuple(scores)),
            SweepSeries("attack currently names the true sender", tuple(correct)),
        ),
    )
    checks = {
        "after many rounds the predecessor attack identifies the true sender": (
            attack.suspect() == true_sender
        ),
        "the true sender's score grows with the number of rounds": scores[-1] >= scores[0],
    }
    key_points = {
        "true sender": true_sender,
        "suspect after all rounds": attack.suspect(),
        "score of the true sender after all rounds": round(attack.score(true_sender), 4),
    }
    return ExperimentData(
        "ext-pred",
        (
            "Extension: predecessor attack over repeated Crowds paths "
            f"(N={n_nodes}, C={n_compromised})"
        ),
        sweep,
        checks,
        key_points,
    )
