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
  single-message anonymity of a Crowds-style system;
* ``batch_validation`` — the vectorized columnar estimator (the ``batch``
  backend of :mod:`repro.batch`) reproduces the closed form within its
  confidence interval across the distribution families of the paper;
* ``sharded_validation`` — the multiprocess ``sharded`` backend reproduces
  the closed form (C=1), is bit-deterministic for a fixed ``(seed, shards)``
  pair, and its multi-compromised arrangement-class engine reproduces the
  exhaustive ground truth at C=2;
* ``adaptive_validation`` — the estimation service (:mod:`repro.service`)
  reaches a target CI half-width with measurably fewer trials than the fixed
  reference budget, deterministically per ``(seed, block_size)``, and serves
  a repeated identical request bit-identically from its result cache;
* ``cycle_validation`` — the vectorized cycle engine (Crowds-style
  cycle-allowed paths on the ``batch``/``sharded`` fast path) reproduce the
  exhaustive ground truth and the hop-by-hop event engine under all three
  adversary models, are bit-deterministic per ``(seed, shards)``, and
  round-trip a cycle request bit-identically through the service cache —
  at ``C = 1`` *and* at ``C = 2`` (multi-node walk patterns, priced by the
  honest-subgraph walk counts);
* ``topology_validation`` — anonymity versus connectivity on restricted
  graphs: the exact degree across clique/grid/ring/star/two-zone topologies,
  cut-vertex sensitivity as bridges are added between two zones, the
  ``topology`` batch engine's exact class table agreeing with exhaustive
  enumeration to ``1e-10``, bit-determinism per ``(seed, shards)``, and a
  topology request round-tripping through the service cache while clique
  requests keep their pre-topology digests.
"""

from __future__ import annotations

from repro.adversary.attacks import PredecessorAttack
from repro.analysis.compare import compare_deployed_systems
from repro.analysis.sweep import SweepResult, SweepSeries
from repro.batch.backends import estimate_anonymity
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.optimizer import best_fixed_length
from repro.distributions import (
    FixedLength,
    GeometricLength,
    TwoPointLength,
    UniformLength,
)
from repro.experiments.base import PAPER_N_COMPROMISED, PAPER_N_NODES, ExperimentData
from repro.routing.strategies import (
    PathSelectionStrategy,
    deployed_system_strategies,
)
from repro.utils.rng import ensure_rng, spawn_child_rng

# The experiments that drive the discrete-event simulator import it (and the
# protocols) in their own bodies, so the registry, and with it the CLI, loads
# without them.

__all__ = [
    "compromised_sweep",
    "adversary_ablation",
    "protocol_comparison",
    "simulation_validation",
    "predecessor_attack_rounds",
    "batch_validation",
    "sharded_validation",
    "adaptive_validation",
    "cycle_validation",
    "topology_validation",
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


def batch_validation(
    n_nodes: int = 40,
    trials: int = 20_000,
    seed: int = 2024,
) -> ExperimentData:
    """The vectorized batch backend reproduces the closed form for every family.

    For each distribution family of the paper (fixed, uniform, geometric /
    Crowds-style, two-point / PipeNet-style) the experiment compares the
    closed-form anonymity degree with the ``batch`` backend's estimate and
    checks that the 95% confidence interval covers the exact value — the same
    validation that ``simulation_validation`` performs for the hop-by-hop
    engine, at more than an order of magnitude more trials.
    """
    model = SystemModel(n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED)
    analyzer = AnonymityAnalyzer(model)
    rng = ensure_rng(seed)

    cases = {
        "F(5)": FixedLength(5),
        "U(2, 8)": UniformLength(2, 8),
        "Geom(3/4)": GeometricLength(
            p_forward=0.75, minimum=1, max_length=n_nodes - 1
        ),
        "TwoPoint(3, 4)": TwoPointLength(3, 4, 0.5),
    }
    labels = []
    estimated = []
    exact = []
    within = []
    for label, distribution in cases.items():
        report = estimate_anonymity(
            model,
            distribution,
            n_trials=trials,
            rng=spawn_child_rng(rng),
            backend="batch",
        )
        reference = analyzer.anonymity_degree(distribution)
        labels.append(label)
        estimated.append(report.degree_bits)
        exact.append(reference)
        within.append(report.estimate.contains(reference, slack=0.01))

    sweep = SweepResult(
        x_label="case index",
        x_values=tuple(float(i) for i in range(len(labels))),
        series=(
            SweepSeries("batch-estimated H*", tuple(estimated)),
            SweepSeries("closed-form H*", tuple(exact)),
        ),
    )
    checks = {
        f"batch estimate matches the closed form for {label}": ok
        for label, ok in zip(labels, within)
    }
    key_points = {
        label: f"batch {est:.4f} vs exact {ref:.4f}"
        for label, est, ref in zip(labels, estimated, exact)
    }
    key_points["trials per case"] = trials
    return ExperimentData(
        "ext-batch",
        (
            "Extension: vectorized batch estimator vs closed form "
            f"(N={n_nodes}, {trials} trials)"
        ),
        sweep,
        checks,
        key_points,
    )


def sharded_validation(
    n_nodes: int = 40,
    trials: int = 20_000,
    shards: int = 4,
    seed: int = 2026,
    small_n: int = 8,
) -> ExperimentData:
    """The multiprocess ``sharded`` backend reproduces the reference engines.

    Three properties are validated:

    * **closed-form parity (C=1):** for the distribution families of the
      paper, the sharded estimate's 95% confidence interval covers the exact
      anonymity degree — the same contract ``batch_validation`` checks for
      the single-process engine;
    * **determinism:** for a fixed ``(seed, shards)`` pair the merged report
      is bit-identical run to run (the worker count only sizes the pool, so
      the experiment runs its shards inline and the numbers match any
      ``--workers`` setting);
    * **multi-compromised parity (C=2):** on a small system where exhaustive
      enumeration is exact ground truth, the arrangement-class engine's CI
      covers the enumerated degree.
    """
    model = SystemModel(n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED)
    analyzer = AnonymityAnalyzer(model)
    rng = ensure_rng(seed)

    cases = {
        "F(5)": FixedLength(5),
        "U(2, 8)": UniformLength(2, 8),
        "Geom(3/4)": GeometricLength(p_forward=0.75, minimum=1, max_length=n_nodes - 1),
    }
    labels = []
    estimated = []
    exact = []
    within = []
    for label, distribution in cases.items():
        report = estimate_anonymity(
            model,
            distribution,
            n_trials=trials,
            rng=spawn_child_rng(rng),
            backend="sharded",
            workers=1,
            shards=shards,
        )
        reference = analyzer.anonymity_degree(distribution)
        labels.append(label)
        estimated.append(report.degree_bits)
        exact.append(reference)
        within.append(report.estimate.contains(reference, slack=0.01))

    first = estimate_anonymity(
        model, FixedLength(5), n_trials=trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    second = estimate_anonymity(
        model, FixedLength(5), n_trials=trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )

    multi_model = SystemModel(n_nodes=small_n, n_compromised=2)
    multi_distribution = UniformLength(1, 4)
    multi_exact = ExhaustiveAnalyzer(multi_model).anonymity_degree(multi_distribution)
    multi_report = estimate_anonymity(
        multi_model,
        multi_distribution,
        n_trials=trials,
        rng=spawn_child_rng(rng),
        backend="sharded",
        workers=1,
        shards=shards,
    )

    sweep = SweepResult(
        x_label="case index",
        x_values=tuple(float(i) for i in range(len(labels))),
        series=(
            SweepSeries("sharded-estimated H*", tuple(estimated)),
            SweepSeries("closed-form H*", tuple(exact)),
        ),
    )
    checks = {
        f"sharded estimate matches the closed form for {label}": ok
        for label, ok in zip(labels, within)
    }
    checks["fixed (seed, shards) reproduces the report bit-for-bit"] = (
        first.estimate == second.estimate
        and first.identification_rate == second.identification_rate
    )
    checks["C=2 estimate covers the exhaustive ground truth"] = (
        multi_report.estimate.contains(multi_exact, slack=0.01)
    )
    key_points = {
        label: f"sharded {est:.4f} vs exact {ref:.4f}"
        for label, est, ref in zip(labels, estimated, exact)
    }
    key_points["C=2 ground truth"] = (
        f"sharded {multi_report.degree_bits:.4f} vs exhaustive {multi_exact:.4f} "
        f"(N={small_n})"
    )
    key_points["shards"] = shards
    key_points["trials per case"] = trials
    return ExperimentData(
        "ext-shard",
        (
            "Extension: sharded multiprocess estimator vs closed form and "
            f"exhaustive enumeration (N={n_nodes}, {trials} trials, {shards} shards)"
        ),
        sweep,
        checks,
        key_points,
    )


def adaptive_validation(
    n_nodes: int = 50,
    low: int = 3,
    high: int = 8,
    precision: float = 0.01,
    block_size: int = 5_000,
    fixed_trials: int = 200_000,
    seed: int = 2027,
) -> ExperimentData:
    """The adaptive-precision service beats a fixed budget and caches exactly.

    The reference configuration of the service acceptance criterion — uniform
    path lengths on ``[low, high]``, ``N`` nodes, one compromised node — is
    estimated three ways:

    * **adaptively**, through :class:`repro.service.EstimationService` with a
      target 95% CI half-width of ``precision`` bits, which should stop well
      short of the fixed reference budget;
    * **again, identically**, which must be served from the service's
      content-addressed cache with a bit-identical report — and a fresh
      service (cold cache) must recompute exactly the same bits for the same
      ``(seed, block_size)``;
    * **with the fixed budget**, through the plain ``batch`` backend at
      ``fixed_trials`` trials, as the cost baseline.

    The sweep records the adaptive convergence trajectory: the CI half-width
    after each merged block against the cumulative trial count.
    """
    from repro.service import DistributionSpec, EstimateRequest, EstimationService

    model = SystemModel(n_nodes=n_nodes, n_compromised=PAPER_N_COMPROMISED)
    distribution = UniformLength(low, high)
    request = EstimateRequest(
        n_nodes=n_nodes,
        distribution=DistributionSpec.from_distribution(distribution),
        precision=precision,
        block_size=block_size,
        max_trials=fixed_trials,
        seed=seed,
    )

    with EstimationService() as service:
        cold = service.estimate(request)
        warm = service.estimate(request)
    with EstimationService() as fresh_service:
        recomputed = fresh_service.estimate(request)

    fixed = estimate_anonymity(
        model, distribution, n_trials=fixed_trials, rng=seed, backend="batch"
    )
    exact = AnonymityAnalyzer(model).anonymity_degree(distribution)

    trials_axis = tuple(float(n) for n, _ in cold.trajectory)
    sweep = SweepResult(
        x_label="cumulative trials",
        x_values=trials_axis,
        series=(
            SweepSeries(
                "95% CI half-width (bits)",
                tuple(width for _, width in cold.trajectory),
            ),
            SweepSeries("precision target", tuple(precision for _ in trials_axis)),
        ),
    )
    half_width = cold.trajectory[-1][1] if cold.trajectory else float("inf")
    checks = {
        "the adaptive run converges to the precision target": (
            cold.converged and half_width <= precision
        ),
        "adaptive stopping spends measurably fewer trials than the fixed budget": (
            cold.n_trials <= fixed_trials // 4
        ),
        "a repeated identical request is served from the cache bit-identically": (
            warm.from_cache and warm.report == cold.report
        ),
        "a fixed (seed, block_size) reproduces the report bit-for-bit": (
            not recomputed.from_cache and recomputed.report == cold.report
        ),
        "the adaptive 95% CI covers the closed-form anonymity degree": (
            cold.report.estimate.contains(exact, slack=0.01)
        ),
    }
    key_points = {
        "reference config": f"U({low}, {high}), N={n_nodes}, C=1",
        "precision target (CI half-width)": precision,
        "adaptive trials": cold.n_trials,
        "adaptive rounds": cold.rounds,
        "fixed budget": fixed_trials,
        "trials saved": f"{1.0 - cold.n_trials / fixed_trials:.1%}",
        "adaptive H*": f"{cold.degree_bits:.4f} ± {half_width:.4f}",
        "fixed-budget H*": str(fixed.estimate),
        "closed-form H*": round(exact, 5),
        "request digest": cold.digest[:16] + "…",
    }
    return ExperimentData(
        "ext-adaptive",
        (
            "Extension: adaptive-precision service vs fixed trial budget "
            f"(N={n_nodes}, target ±{precision:g} bits)"
        ),
        sweep,
        checks,
        key_points,
    )


def cycle_validation(
    small_n: int = 6,
    p_forward: float = 0.6,
    max_length: int = 7,
    batch_trials: int = 60_000,
    event_trials: int = 2_500,
    shards: int = 3,
    seed: int = 2028,
) -> ExperimentData:
    """The vectorized cycle engine reproduces the ground truth for Crowds-style paths.

    On a system small enough for exhaustive enumeration of every cycle-allowed
    path (the only pre-existing exact engine for this path model), a
    Crowds-style coin-flip strategy is validated four ways:

    * **exhaustive parity:** under each of the three adversary models the
      ``batch`` backend's 95% confidence interval covers the exhaustively
      enumerated anonymity degree;
    * **event-engine parity:** the hop-by-hop ``event`` engine — one exact
      cycle posterior per trial — agrees with the batch estimate within the
      combined Monte-Carlo confidence intervals;
    * **determinism:** the ``sharded`` backend reproduces the report
      bit-for-bit for a fixed ``(seed, shards)`` pair;
    * **service round-trip:** a cycle-allowed :class:`EstimateRequest` is
      answered adaptively, and repeating the identical request is served
      bit-identically from the content-addressed result cache;
    * **multiple compromised nodes:** the ``cycle`` engine's estimate
      covers the exhaustive degree at ``C = 2`` under every adversary model
      and is bit-deterministic per ``(seed, shards)`` — the same guard rails
      as at ``C = 1``.
    """
    from repro.service import DistributionSpec, EstimateRequest, EstimationService
    from repro.simulation.experiment import StrategyMonteCarlo

    distribution = GeometricLength(
        p_forward=p_forward, minimum=1, max_length=max_length
    )
    strategy = PathSelectionStrategy(
        "Crowds-style walk", distribution, path_model=PathModel.CYCLE_ALLOWED
    )
    rng = ensure_rng(seed)

    labels = []
    exact = []
    batch_estimates = []
    event_estimates = []
    checks = {}
    for adversary in AdversaryModel:
        model = SystemModel(
            n_nodes=small_n, n_compromised=1, adversary=adversary
        )
        truth = ExhaustiveAnalyzer(
            model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(distribution)
        batch_report = estimate_anonymity(
            model, strategy, n_trials=batch_trials,
            rng=spawn_child_rng(rng), backend="batch",
        )
        event_report = StrategyMonteCarlo(model, strategy).run(
            event_trials, rng=spawn_child_rng(rng)
        )
        labels.append(adversary.value)
        exact.append(truth)
        batch_estimates.append(batch_report.degree_bits)
        event_estimates.append(event_report.degree_bits)
        checks[f"batch CI covers the exhaustive degree ({adversary.value})"] = (
            batch_report.estimate.contains(truth, slack=0.01)
        )
        gap = abs(batch_report.degree_bits - event_report.degree_bits)
        tolerance = 3.0 * (
            batch_report.estimate.std_error + event_report.estimate.std_error
        )
        checks[f"batch agrees with the event engine ({adversary.value})"] = (
            gap <= tolerance
        )

    model = SystemModel(n_nodes=small_n, n_compromised=1)
    first = estimate_anonymity(
        model, strategy, n_trials=batch_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    second = estimate_anonymity(
        model, strategy, n_trials=batch_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    checks["a fixed (seed, shards) reproduces the cycle report bit-for-bit"] = (
        first.estimate == second.estimate
        and first.identification_rate == second.identification_rate
    )

    request = EstimateRequest(
        n_nodes=small_n,
        distribution=DistributionSpec.from_distribution(distribution),
        path_model=PathModel.CYCLE_ALLOWED.value,
        precision=0.02,
        block_size=10_000,
        max_trials=batch_trials,
        seed=seed,
    )
    with EstimationService() as service:
        cold = service.estimate(request)
        warm = service.estimate(request)
    checks["a repeated cycle request is served from the cache bit-identically"] = (
        not cold.from_cache and warm.from_cache and warm.report == cold.report
    )

    # The C > 1 leg is guarded exactly like C = 1.
    multi_trials = batch_trials // 2
    multi_points: dict[str, str] = {}
    for adversary in AdversaryModel:
        multi_model = SystemModel(
            n_nodes=small_n, n_compromised=2, adversary=adversary
        )
        multi_truth = ExhaustiveAnalyzer(
            multi_model.with_path_model(PathModel.CYCLE_ALLOWED)
        ).anonymity_degree(distribution)
        multi_report = estimate_anonymity(
            multi_model, strategy, n_trials=multi_trials,
            rng=spawn_child_rng(rng), backend="batch",
        )
        checks[f"C=2 batch CI covers the exhaustive degree ({adversary.value})"] = (
            multi_report.estimate.contains(multi_truth, slack=0.01)
        )
        multi_points[f"C=2, {adversary.value}"] = (
            f"exhaustive {multi_truth:.4f} vs batch {multi_report.degree_bits:.4f}"
        )

    multi_model = SystemModel(n_nodes=small_n, n_compromised=2)
    multi_first = estimate_anonymity(
        multi_model, strategy, n_trials=multi_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    multi_second = estimate_anonymity(
        multi_model, strategy, n_trials=multi_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    checks["a fixed (seed, shards) reproduces the C=2 report bit-for-bit"] = (
        multi_first.estimate == multi_second.estimate
        and multi_first.identification_rate == multi_second.identification_rate
    )

    sweep = SweepResult(
        x_label="adversary model index",
        x_values=tuple(float(i) for i in range(len(labels))),
        series=(
            SweepSeries("exhaustive H*", tuple(exact)),
            SweepSeries("batch H*", tuple(batch_estimates)),
            SweepSeries("event H*", tuple(event_estimates)),
        ),
    )
    key_points = {
        label: (
            f"exhaustive {truth:.4f} vs batch {batch:.4f} vs event {event:.4f}"
        )
        for label, truth, batch, event in zip(
            labels, exact, batch_estimates, event_estimates
        )
    }
    key_points.update(multi_points)
    key_points["strategy"] = strategy.describe()
    key_points["batch trials per adversary"] = batch_trials
    key_points["C=2 batch trials per adversary"] = multi_trials
    key_points["service digest"] = cold.digest[:16] + "…"
    return ExperimentData(
        "ext-cycle",
        (
            "Extension: vectorized cycle engine vs exhaustive enumeration and "
            f"the event engine (N={small_n}, cycle-allowed paths)"
        ),
        sweep,
        checks,
        key_points,
    )


def topology_validation(
    n_nodes: int = 6,
    batch_trials: int = 50_000,
    shards: int = 3,
    seed: int = 2029,
) -> ExperimentData:
    """Anonymity versus connectivity: restricted topologies end to end.

    The paper's clique assumption is the best case for the sender: every node
    can forward to every other node, so observations carry the least
    structure.  This experiment quantifies what connectivity is worth and
    validates the whole topology stack along the way:

    * **anonymity vs connectivity:** the exact degree (exhaustive
      enumeration through the shared topology path law) across clique, grid,
      ring, two-zone and star graphs at ``N = 6``, ``C = 1`` — the degree
      falls as the graph thins, collapsing to zero on a star whose hub is
      the compromised node;
    * **cut-vertex sensitivity:** adding bridge edges between two otherwise
      separate zones monotonically recovers anonymity (1, 2, then 3
      bridges);
    * **engine parity:** the ``topology`` batch engine's exact class table
      agrees with exhaustive enumeration to ``1e-10`` on every non-clique
      topology, and its Monte-Carlo confidence interval covers the truth;
    * **determinism:** a fixed ``(seed, shards)`` pair reproduces the
      sharded topology report bit-for-bit;
    * **service round-trip:** a topology request is answered adaptively and
      replayed bit-identically from the content-addressed cache, while a
      ``topology="clique"`` request digests identically to the same request
      with no topology at all (the pre-topology cache stays warm).
    """
    from repro.batch.topoengine import TopologyEngine
    from repro.core.topology import Topology
    from repro.service import DistributionSpec, EstimateRequest, EstimationService

    distribution = UniformLength(1, 3)
    strategy = PathSelectionStrategy("topology walk", distribution)
    rng = ensure_rng(seed)

    topologies: list[tuple[str, Topology | None]] = [
        ("clique", None),
        ("grid:2x3", Topology.grid(2, 3)),
        ("two-zone:3:3:1", Topology.two_zone(3, 3, 1)),
        ("ring", Topology.ring(n_nodes)),
        ("star", Topology.star(n_nodes)),
    ]
    labels = []
    exact = []
    batch_estimates = []
    checks = {}
    for label, topology in topologies:
        model = SystemModel(n_nodes=n_nodes, n_compromised=1, topology=topology)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(distribution)
        batch_report = estimate_anonymity(
            model, strategy, n_trials=batch_trials,
            rng=spawn_child_rng(rng), backend="batch",
        )
        labels.append(label)
        exact.append(truth)
        batch_estimates.append(batch_report.degree_bits)
        checks[f"batch CI covers the exhaustive degree ({label})"] = (
            batch_report.estimate.contains(truth, slack=0.01)
        )
        if topology is not None:
            engine = TopologyEngine(model, strategy, model.compromised_nodes())
            checks[f"engine class table matches exhaustive to 1e-10 ({label})"] = (
                abs(engine.exact_degree() - truth) <= 1e-10
            )
    checks["connectivity ranks the topologies (clique best, star worst)"] = (
        exact[0] >= max(exact[1:]) and exact[-1] <= min(exact[:-1])
    )

    bridge_degrees = []
    for bridges in (1, 2, 3):
        model = SystemModel(
            n_nodes=n_nodes,
            n_compromised=1,
            topology=Topology.two_zone(3, 3, bridges),
        )
        bridge_degrees.append(ExhaustiveAnalyzer(model).anonymity_degree(distribution))
    checks["adding bridges between zones monotonically recovers anonymity"] = all(
        earlier <= later + 1e-12
        for earlier, later in zip(bridge_degrees, bridge_degrees[1:])
    )

    ring_model = SystemModel(
        n_nodes=n_nodes, n_compromised=1, topology=Topology.ring(n_nodes)
    )
    first = estimate_anonymity(
        ring_model, strategy, n_trials=batch_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    second = estimate_anonymity(
        ring_model, strategy, n_trials=batch_trials, rng=seed,
        backend="sharded", workers=1, shards=shards,
    )
    checks["a fixed (seed, shards) reproduces the topology report bit-for-bit"] = (
        first.estimate == second.estimate
        and first.identification_rate == second.identification_rate
    )

    request = EstimateRequest(
        n_nodes=n_nodes,
        distribution=DistributionSpec.from_distribution(distribution),
        topology="ring",
        precision=0.02,
        block_size=10_000,
        max_trials=batch_trials,
        seed=seed,
    )
    with EstimationService() as service:
        cold = service.estimate(request)
        warm = service.estimate(request)
    checks["a repeated topology request is served from the cache bit-identically"] = (
        not cold.from_cache and warm.from_cache and warm.report == cold.report
    )

    bare = EstimateRequest(
        n_nodes=n_nodes,
        distribution=DistributionSpec.from_distribution(distribution),
        seed=seed,
    )
    checks["a clique topology spec digests identically to no topology"] = (
        EstimateRequest(
            n_nodes=n_nodes,
            distribution=DistributionSpec.from_distribution(distribution),
            topology="clique",
            seed=seed,
        ).digest()
        == bare.digest()
    )

    sweep = SweepResult(
        x_label="topology index (decreasing connectivity)",
        x_values=tuple(float(i) for i in range(len(labels))),
        series=(
            SweepSeries("exhaustive H*", tuple(exact)),
            SweepSeries("batch H*", tuple(batch_estimates)),
        ),
    )
    key_points = {
        label: f"exhaustive {truth:.4f} vs batch {batch:.4f}"
        for label, truth, batch in zip(labels, exact, batch_estimates)
    }
    key_points["two-zone bridges 1/2/3"] = " -> ".join(
        f"{degree:.4f}" for degree in bridge_degrees
    )
    key_points["strategy"] = strategy.describe()
    key_points["batch trials per topology"] = batch_trials
    key_points["service digest"] = cold.digest[:16] + "…"
    return ExperimentData(
        "ext-topology",
        (
            "Extension: anonymity vs connectivity — the topology engine on "
            f"restricted graphs (N={n_nodes}, C=1)"
        ),
        sweep,
        checks,
        key_points,
    )
