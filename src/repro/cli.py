"""Command-line interface.

Installed as ``repro-anon`` (or runnable as ``python -m repro.cli``).  The CLI
exposes the library's main entry points without writing any Python:

* ``repro-anon list`` — list every reproducible experiment;
* ``repro-anon figure fig3a`` — regenerate the data behind one paper figure
  (or theorem, or extension study) and print it as a table;
* ``repro-anon degree --n 100 --strategy fixed --length 5`` — compute the
  anonymity degree of one strategy;
* ``repro-anon optimize --n 100 --mean 10`` — run the Section 5.4 optimization
  for a target expected path length;
* ``repro-anon compare --n 100`` — rank the deployed systems of Section 2;
* ``repro-anon simulate --n 40 --protocol freedom --trials 500`` — run the
  discrete-event simulator and compare with the closed form;
* ``repro-anon batch --n 100 --strategy uniform --trials 100000`` — run the
  vectorized batch estimator (or any other backend) and compare its
  estimate and throughput with the closed form; ``--backend sharded
  --workers 8`` fans the trials across worker processes,
  ``--compromised 2`` switches to the multi-compromised engines
  (arrangement classes on simple paths, walk-pattern classes on cycle
  paths), and ``--strategy`` also accepts the named strategies of the
  deployed-system catalogue: ``crowds`` (the paper's simple-path length
  strategy) plus the cycle-allowed ``crowds-cycles``,
  ``onion-routing-2-cycles``, and ``hordes``, which run on the vectorized
  cycle engine at any ``C``;
* ``repro-anon estimate --n 100 --strategy uniform --precision 0.01
  --cache-dir ~/.repro-cache`` — adaptive-precision estimation through the
  caching service of :mod:`repro.service`: trials run in blocks until the
  95% CI half-width reaches ``--precision``, and an identical request is
  served bit-identically from the content-addressed result cache;
* ``repro-anon cache stats|clear --cache-dir ~/.repro-cache`` — inspect or
  empty that on-disk cache;
* ``repro-anon stats --metrics-file metrics.json --format prometheus`` —
  render a saved telemetry snapshot (from ``--metrics-file`` or the CI bench
  artifact) as a table, JSON, Prometheus text, or a span tree, and/or report
  cache statistics with ``--cache-dir``;
* ``repro-anon history list|show|diff --journal runs.jsonl`` — inspect the
  run ledger written by ``estimate --journal``: list recent runs, show one
  record as JSON, or diff the last two runs of one digest (payload fields
  must be bit-identical; timing fields are free to differ).

Observability: ``batch`` and ``estimate`` accept ``--metrics`` (print the
telemetry table), ``--trace`` (print the span tree), ``--metrics-file``
(save the snapshot as JSON), and ``--profile`` / ``--profile-file`` (profile
the run per trace stage and print/save the hot-function tables);
``estimate`` additionally accepts ``--journal`` (append the run to the
ledger) and ``--progress`` (a live single-line convergence meter on a
terminal stderr); ``estimate --json`` prints a machine-readable document
(estimate, CI half-width, trials, stop reason, convergence history) instead
of the table.  A global ``--log-level debug`` streams the library's logs —
engine selection, cache decisions, span timings — to stderr; without it the
library is silent (NullHandler on the root ``repro`` logger).

Numeric sanity (positive trial counts, worker counts, precisions) is
enforced by ``argparse`` type callbacks, and every
:class:`~repro.exceptions.ConfigurationError` raised by the engines (an
out-of-range ``--compromised``, an infeasible distribution, a backend
refusing its domain) is reported the same way, so misuse exits with a
one-line usage error instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import nullcontext

from repro.analysis.compare import compare_deployed_systems
from repro.analysis.report import render_comparison, render_event_breakdown, render_key_points
from repro.batch.backends import available_backends, estimate_anonymity
from repro.exceptions import ConfigurationError
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.core.results import MonteCarloReport
from repro.core.topology import Topology
from repro.core.optimizer import best_fixed_length, best_uniform_for_mean, optimize_distribution
from repro.distributions import (
    FixedLength,
    GeometricLength,
    PathLengthDistribution,
    UniformLength,
)
from repro.core.model import PathModel
from repro.experiments.registry import list_experiments, run_experiment
from repro.routing.strategies import (
    PathSelectionStrategy,
    deployed_system_strategies,
)

__all__ = ["main", "build_parser"]

#: ``simulate --protocol`` names and the :mod:`repro.protocols` class each
#: one runs; the protocols and the simulator load only when ``simulate`` runs.
_PROTOCOL_CLASSES = {
    "freedom": "FreedomProtocol",
    "onion-routing-1": "OnionRoutingI",
    "pipenet": "PipeNetProtocol",
    "anonymizer": "AnonymizerProtocol",
    "remailer": "RemailerChainProtocol",
    "crowds": "CrowdsProtocol",
    "hordes": "HordesProtocol",
}

#: Named strategies of the deployed-system catalogue accepted by --strategy.
#: The cycle-allowed ones run on the vectorized cycle engine.
_NAMED_STRATEGIES = (
    "crowds",
    "crowds-cycles",
    "onion-routing-2-cycles",
    "hordes",
)


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (one-line error, no traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0.0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of batch and estimate."""
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry during the run and print the metrics table",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect telemetry during the run and print the span tree",
    )
    parser.add_argument(
        "--metrics-file",
        default=None,
        help="write the telemetry snapshot as JSON to this file "
        "(readable back with 'repro-anon stats --metrics-file')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run per trace stage (cProfile scoped to each span) "
        "and print the per-stage hot-function tables",
    )
    parser.add_argument(
        "--profile-file",
        default=None,
        help="write the per-stage profile as JSON to this file",
    )


def _telemetry_scope(args: argparse.Namespace):
    """An activated registry when any observability flag asks for one.

    Returns a context manager yielding the live registry, or a no-op
    ``nullcontext`` — so the commands stay on the null-registry fast path
    unless ``--metrics`` / ``--trace`` / ``--metrics-file`` /
    ``--profile`` / ``--profile-file`` was given.
    """
    from repro.telemetry import activate

    wanted = (
        args.metrics
        or args.trace
        or args.metrics_file is not None
        or args.profile
        or args.profile_file is not None
    )
    return activate() if wanted else nullcontext()


def _profile_scope(args: argparse.Namespace):
    """A span-aligned stage profiler when ``--profile``/``--profile-file`` asks.

    Must be entered inside :func:`_telemetry_scope` (the profiler rides the
    active registry's spans); returns ``nullcontext`` otherwise.
    """
    if not (args.profile or args.profile_file is not None):
        return nullcontext()
    from repro.telemetry import profile_span

    return profile_span()


def _emit_telemetry(args: argparse.Namespace, registry) -> None:
    """Print/write the requested telemetry views after a run.

    Files are written before anything prints: a downstream pager closing the
    pipe mid-print (BrokenPipeError) must not lose the requested artifact.
    """
    if registry is None:
        return
    from repro.telemetry import render_span_tree, render_text, write_snapshot

    if args.metrics_file is not None:
        write_snapshot(args.metrics_file, registry)
    if args.metrics:
        print()
        print("-- telemetry --")
        print(render_text(registry.snapshot()))
    if args.trace:
        print()
        print("-- spans --")
        print(render_span_tree(registry.snapshot()))


def _emit_profile(args: argparse.Namespace, profiler) -> None:
    """Print/write the requested stage-profile views after a run.

    Like :func:`_emit_telemetry`, the file is written before printing so a
    closed pipe cannot lose it.
    """
    if profiler is None:
        return
    from repro.telemetry import render_profile, write_profile

    if args.profile_file is not None:
        write_profile(args.profile_file, profiler)
    if args.profile:
        print()
        print("-- profile --")
        print(render_profile(profiler))


def _add_strategy_arguments(
    parser: argparse.ArgumentParser,
    default_strategy: str,
    cycle_note: str = "cycle-allowed ones run on the cycle engine",
) -> None:
    """The shared model/strategy flags of degree, batch, and estimate.

    ``cycle_note`` tells ``--strategy``'s help what the command does with the
    cycle-allowed named strategies.
    """
    parser.add_argument("--n", type=_positive_int, default=100, help="number of nodes")
    parser.add_argument(
        "--adversary",
        choices=[a.value for a in AdversaryModel],
        default=AdversaryModel.FULL_BAYES.value,
    )
    parser.add_argument(
        "--strategy",
        choices=["fixed", "uniform", "geometric", *_NAMED_STRATEGIES],
        default=default_strategy,
        help="parametric family (fixed | uniform | geometric) or a named "
        f"deployed-system strategy ({cycle_note})",
    )
    parser.add_argument(
        "--length", type=_non_negative_int, default=5, help="fixed path length"
    )
    parser.add_argument(
        "--low", type=_non_negative_int, default=2, help="uniform lower bound"
    )
    parser.add_argument(
        "--high", type=_non_negative_int, default=8, help="uniform upper bound"
    )
    parser.add_argument(
        "--p-forward", type=float, default=0.75,
        help="geometric forwarding probability",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-anon",
        description=(
            "Reproduction of 'An Optimal Strategy for Anonymous Communication "
            "Protocols' (Guan et al., ICDCS 2002)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="emit the library's logs (engine selection, cache decisions, "
        "span timings) to stderr at this level",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list every reproducible experiment")

    figure = subparsers.add_parser("figure", help="regenerate one experiment's data")
    figure.add_argument(
        "experiment_id",
        choices=list_experiments(),
        metavar="experiment_id",
        help="experiment identifier, e.g. fig3a (see 'repro-anon list')",
    )

    degree = subparsers.add_parser("degree", help="anonymity degree of one strategy")
    _add_strategy_arguments(
        degree,
        default_strategy="fixed",
        cycle_note="the closed form covers simple paths, so cycle-allowed "
        "ones are refused; use batch",
    )
    # degree answers the closed form's C = 1 and has no --compromised.
    degree.set_defaults(compromised=1)

    optimize = subparsers.add_parser("optimize", help="optimal path-length distribution")
    optimize.add_argument("--n", type=int, default=100)
    optimize.add_argument(
        "--mean", type=int, default=None, help="constrain the expected path length"
    )
    optimize.add_argument(
        "--full-simplex",
        action="store_true",
        help="search all distributions (interior point) instead of the uniform family",
    )

    compare = subparsers.add_parser("compare", help="rank deployed systems")
    compare.add_argument("--n", type=int, default=100)

    simulate = subparsers.add_parser("simulate", help="discrete-event simulation")
    simulate.add_argument("--n", type=_positive_int, default=40)
    simulate.add_argument("--compromised", type=_non_negative_int, default=1)
    simulate.add_argument(
        "--protocol", choices=sorted(_PROTOCOL_CLASSES), default="freedom"
    )
    simulate.add_argument("--trials", type=_positive_int, default=500)
    simulate.add_argument("--seed", type=_non_negative_int, default=0)

    batch = subparsers.add_parser(
        "batch", help="vectorized Monte-Carlo estimate via a named backend"
    )
    _add_strategy_arguments(batch, default_strategy="uniform")
    batch.add_argument("--trials", type=_positive_int, default=100_000)
    batch.add_argument("--seed", type=_non_negative_int, default=0)
    batch.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="route over a restricted graph (ring | star | grid:RxC | "
        "regular:D:SEED | two-zone:A:B:BRIDGES | adj:HEX); default is the "
        "paper's clique",
    )
    batch.add_argument(
        "--backend",
        choices=available_backends(),
        default="batch",
        help="estimator engine (exact | event | batch | sharded)",
    )
    batch.add_argument(
        "--compromised",
        type=_non_negative_int,
        default=1,
        help="number of compromised nodes C (C != 1 selects the "
        "arrangement-class engine on simple paths; walks run on the cycle engine)",
    )
    batch.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for --backend sharded (default: CPU count)",
    )
    batch.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="seed streams for --backend sharded (default: workers); fixing "
        "this makes results independent of the worker count",
    )
    _add_telemetry_arguments(batch)

    estimate = subparsers.add_parser(
        "estimate",
        help="adaptive-precision estimate through the caching service",
    )
    _add_strategy_arguments(estimate, default_strategy="uniform")
    estimate.add_argument(
        "--compromised",
        type=_non_negative_int,
        default=1,
        help="number of compromised nodes C",
    )
    estimate.add_argument(
        "--precision",
        type=_positive_float,
        default=0.01,
        help="target 95%% CI half-width in bits (stop as soon as reached)",
    )
    estimate.add_argument(
        "--block-size",
        type=_positive_int,
        default=10_000,
        help="trials per adaptive round (part of the determinism contract)",
    )
    estimate.add_argument(
        "--max-trials",
        type=_positive_int,
        default=1_000_000,
        help="hard ceiling on total trials",
    )
    estimate.add_argument("--seed", type=_non_negative_int, default=0)
    estimate.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="route over a restricted graph (ring | star | grid:RxC | "
        "regular:D:SEED | two-zone:A:B:BRIDGES | adj:HEX); 'clique' and the "
        "default digest identically to pre-topology requests",
    )
    estimate.add_argument(
        "--backend",
        choices=available_backends(),
        default="batch",
        help="accumulating estimator engine (batch | sharded | exact)",
    )
    estimate.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker processes for --backend sharded",
    )
    estimate.add_argument(
        "--shards", type=_positive_int, default=None,
        help="seed streams for --backend sharded",
    )
    estimate.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache (omit for memory-only)",
    )
    estimate.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON document instead of the table "
        "(estimate, CI half-width, trials, stop reason, convergence history)",
    )
    estimate.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append this run to a JSONL run ledger (inspect with "
        "'repro-anon history list|show|diff --journal FILE')",
    )
    estimate.add_argument(
        "--progress",
        action="store_true",
        help="render a live single-line convergence meter on stderr "
        "(suppressed when stderr is not a terminal)",
    )
    _add_telemetry_arguments(estimate)

    history = subparsers.add_parser(
        "history",
        help="inspect a run ledger written by 'estimate --journal'",
    )
    history.add_argument(
        "action",
        choices=["list", "show", "diff"],
        help="list matching records, show the latest one as JSON, or diff "
        "the last two runs of one digest (payload vs timing fields)",
    )
    history.add_argument(
        "digest",
        nargs="?",
        default=None,
        help="request digest, or any prefix of one (required for show/diff)",
    )
    history.add_argument(
        "--journal", required=True, help="path of the run-ledger JSONL file"
    )
    history.add_argument(
        "--limit",
        type=_positive_int,
        default=20,
        help="newest records to list (default: 20)",
    )
    history.add_argument(
        "--backend", default=None, help="only records of this backend"
    )

    stats = subparsers.add_parser(
        "stats",
        help="render a saved telemetry snapshot and/or cache statistics",
    )
    stats.add_argument(
        "--metrics-file",
        default=None,
        help="telemetry snapshot written by --metrics-file or the CI bench job",
    )
    stats.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory to report hit/size statistics for",
    )
    stats.add_argument(
        "--format",
        choices=["table", "json", "prometheus", "spans"],
        default="table",
        help="rendering of the snapshot (default: table)",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or clear an on-disk result cache"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument(
        "--cache-dir", required=True, help="directory of the result cache"
    )

    check = subparsers.add_parser(
        "check",
        help="run the static contract linter (determinism, schemas, floats, telemetry)",
    )
    check.add_argument(
        "--root",
        default=None,
        help="repo checkout to lint (default: the checkout this package "
        "was imported from)",
    )
    check.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable; default: every rule)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit findings (or the rule list) as JSON instead of text",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule ids and titles instead of linting",
    )
    check.add_argument(
        "--update-schemas",
        action="store_true",
        help="re-pin analysis/schemas.json from the current tree and exit",
    )

    return parser


def _resolve_strategy(args: argparse.Namespace) -> PathSelectionStrategy:
    """The complete path-selection strategy requested on the command line."""
    if args.strategy in _NAMED_STRATEGIES:
        return deployed_system_strategies(include_cycle_variants=True)[args.strategy]
    distribution: PathLengthDistribution
    if args.strategy == "fixed":
        distribution = FixedLength(args.length)
    elif args.strategy == "uniform":
        distribution = UniformLength(args.low, args.high)
    else:
        distribution = GeometricLength(
            p_forward=args.p_forward, minimum=1, max_length=args.n - 1
        )
    return PathSelectionStrategy(name=distribution.name, distribution=distribution)


def _command_list() -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    data = run_experiment(args.experiment_id)
    print(data.render())
    return 0 if data.all_checks_pass else 1


def _command_degree(args: argparse.Namespace) -> int:
    strategy = _resolve_strategy(args)
    if not _exact_backend_covers(args, strategy):
        return 2
    model = SystemModel(
        n_nodes=args.n,
        n_compromised=1,
        adversary=AdversaryModel(args.adversary),
    )
    distribution = strategy.effective_distribution(args.n)
    result = AnonymityAnalyzer(model).analyze(distribution)
    print(render_event_breakdown(result, title=f"{distribution.name} under {model.describe()}"))
    return 0


def _command_optimize(args: argparse.Namespace) -> int:
    model = SystemModel(n_nodes=args.n, n_compromised=1)
    report: dict[str, object] = {}
    if args.mean is None:
        scan = best_fixed_length(model)
        report["best fixed length"] = scan.best_length
        report["H* at best fixed length"] = round(scan.best_degree, 5)
        if args.full_simplex:
            outcome = optimize_distribution(model, min_length=0)
            optimum = outcome.distribution
            report["H* of unconstrained optimum"] = round(outcome.degree_bits, 5)
            report["E[L] of unconstrained optimum"] = round(optimum.mean(), 5)
            report["support of unconstrained optimum"] = (
                f"{optimum.min_length}..{optimum.max_length} ({len(optimum.support)} lengths)"
            )
    else:
        scan = best_uniform_for_mean(model, args.mean)
        report["target expected length"] = args.mean
        report["best uniform distribution"] = scan.best_distribution.name
        report["H* of best uniform"] = round(scan.best_degree, 5)
        if args.full_simplex:
            outcome = optimize_distribution(
                model, min_length=0, max_length=min(args.n - 1, 2 * args.mean), mean=args.mean
            )
            report["H* of simplex optimum"] = round(outcome.degree_bits, 5)
    print(render_key_points(report, title=f"Optimization for N={args.n}"))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    model = SystemModel(n_nodes=args.n, n_compromised=1)
    rows = compare_deployed_systems(model)
    print(render_comparison(rows, title=f"Deployed systems ranked for N={args.n}, C=1"))
    ranked = {row.name for row in rows}
    left_out = [
        f"{strategy.name}, {strategy.distribution.name}"
        for strategy in deployed_system_strategies().values()
        if strategy.name not in ranked
    ]
    if left_out:
        print(
            f"left out, no feasible length at N={args.n} (at most {args.n - 1} hops): "
            + "; ".join(left_out)
        )
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro import protocols
    from repro.simulation.experiment import ProtocolMonteCarlo

    factory_cls = getattr(protocols, _PROTOCOL_CLASSES[args.protocol])
    strategy = factory_cls(args.n).strategy()
    # Carry the protocol's path model on the model so the report and the
    # header describe what was actually sampled (crowds/hordes build walks).
    model = SystemModel(
        n_nodes=args.n,
        n_compromised=args.compromised,
        path_model=strategy.path_model,
    )
    experiment = ProtocolMonteCarlo(model, lambda: factory_cls(args.n))
    report = experiment.run(args.trials, rng=args.seed)
    lines = {
        "protocol": args.protocol,
        "trials": args.trials,
        "estimated H*": str(report.estimate),
        "mean path length": round(report.mean_path_length, 3),
        "identification rate": round(report.identification_rate, 4),
    }
    lines.update(
        _closed_form_rows(model, strategy.effective_distribution(args.n), report, slack=0.02)
    )
    print(render_key_points(lines, title=f"Simulation of {args.protocol} ({model.describe()})"))
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    backend_options = _sharded_options(args)
    if backend_options is None:
        return 2
    strategy = _resolve_strategy(args)
    topology = (
        None if args.topology is None else Topology.from_spec(args.topology, args.n)
    )
    if topology is not None and topology.is_clique:
        topology = None
    if args.backend == "exact" and not _exact_backend_covers(args, strategy, topology):
        return 2
    model = SystemModel(
        n_nodes=args.n,
        n_compromised=args.compromised,
        path_model=strategy.path_model,
        adversary=AdversaryModel(args.adversary),
        topology=topology,
    )
    distribution = strategy.effective_distribution(args.n)
    from repro.telemetry import trace_span

    started = time.perf_counter()
    with _telemetry_scope(args) as registry:
        with _profile_scope(args) as profiler:
            with trace_span("cli.batch", backend=args.backend):
                report = estimate_anonymity(
                    model,
                    strategy,
                    n_trials=args.trials,
                    rng=args.seed,
                    backend=args.backend,
                    **backend_options,
                )
    elapsed = time.perf_counter() - started
    lines = {
        "backend": args.backend,
        "strategy": strategy.describe(),
        # The exact backend runs zero trials; report what actually happened.
        "trials": report.n_trials,
        "estimated H*": str(report.estimate),
    }
    if args.workers is not None and args.backend == "sharded":
        lines["workers"] = args.workers
    lines.update(_closed_form_rows(model, distribution, report, slack=1e-9))
    lines.update(
        {
            "mean path length": round(report.mean_path_length, 3),
            "identification rate": round(report.identification_rate, 4),
            "elapsed seconds": round(elapsed, 4),
            "trials/sec": (
                int(report.n_trials / elapsed)
                if report.n_trials and elapsed > 0
                else "n/a (closed form)"
            ),
        }
    )
    print(
        render_key_points(
            lines, title=f"Batch estimation ({model.describe()}, backend={args.backend})"
        )
    )
    _emit_telemetry(args, registry)
    _emit_profile(args, profiler)
    return 0


def _closed_form_rows(
    model: SystemModel,
    distribution: PathLengthDistribution,
    report: MonteCarloReport,
    slack: float,
) -> dict[str, object]:
    """The closed-form ``H*`` and whether the report's 95% CI, widened by ``slack``, holds it.

    Empty outside the closed form's domain (one compromised node, simple
    paths, clique routing, a compromised receiver): ``simulate``, ``batch``
    and ``estimate`` print these rows only where the paper's closed form
    answers the same question.
    """
    if not (
        model.n_compromised == 1
        and model.path_model is PathModel.SIMPLE
        and model.clique_routing
        and model.receiver_compromised
    ):
        return {}
    exact = AnonymityAnalyzer(model).anonymity_degree(distribution)
    return {
        "closed-form H*": round(exact, 5),
        "closed form inside the 95% CI": report.estimate.contains(exact, slack=slack),
    }


def _exact_backend_covers(
    args: argparse.Namespace,
    strategy: PathSelectionStrategy,
    topology: Topology | None = None,
) -> bool:
    """Check the closed form's domain, naming the engine that covers the rest.

    The exact backend evaluates the paper's closed form: one compromised
    node, simple paths, compromised receiver.  Requests outside that domain
    are usage errors (one line, exit code 2) that point at the backend whose
    engines actually cover them, rather than only restating the restriction.
    ``batch``, ``estimate`` and ``degree`` all check here, so they print the
    same line, and it names a whole ``repro-anon batch`` command: ``degree``
    has no ``--backend`` flag to follow a bare one.
    """
    if strategy.path_model is not PathModel.SIMPLE:
        print(
            f"error: the exact backend evaluates the simple-path closed form, "
            f"but --strategy {args.strategy} builds cycle-allowed walks; use "
            "repro-anon batch --backend batch (the vectorized cycle engine) "
            "or --backend sharded",
            file=sys.stderr,
        )
        return False
    if args.compromised != 1:
        print(
            f"error: the exact backend covers the closed form's C=1 domain "
            f"only, got --compromised {args.compromised}; use repro-anon batch "
            "--backend batch (the arrangement-class engine) or --backend sharded",
            file=sys.stderr,
        )
        return False
    if topology is not None:
        print(
            f"error: the exact backend evaluates the clique closed form, but "
            f"--topology {args.topology} restricts routing; use repro-anon "
            "batch --backend batch (the topology engine) or --backend sharded",
            file=sys.stderr,
        )
        return False
    return True


def _sharded_options(args: argparse.Namespace) -> dict[str, int] | None:
    """Collect --workers/--shards, rejecting them for non-sharded backends."""
    if args.backend != "sharded" and (
        args.workers is not None or args.shards is not None
    ):
        print(
            f"error: --workers/--shards only apply to --backend sharded "
            f"(got --backend {args.backend})",
            file=sys.stderr,
        )
        return None
    options: dict[str, int] = {}
    if args.backend == "sharded":
        if args.workers is not None:
            options["workers"] = args.workers
        if args.shards is not None:
            options["shards"] = args.shards
    return options


def _progress_callback(stream):
    """A ``RoundProgress`` observer rewriting one status line on ``stream``.

    Returns ``None`` when ``stream`` is not a terminal — a redirected stderr
    (logs, CI) must never fill with carriage-return spam — so callers can
    pass the result straight to ``EstimationService.estimate(on_round=...)``.
    """
    isatty = getattr(stream, "isatty", None)
    if isatty is None or not isatty():
        return None

    def on_round(progress) -> None:
        remaining = progress.rounds_to_target
        eta = "?" if remaining is None else str(remaining)
        line = (
            f"round {progress.rounds}: {progress.n_trials} trials, "
            f"half-width {progress.half_width:.5f} bits, "
            f"~{eta} round(s) to target"
        )
        stream.write("\r" + line[:78].ljust(78))
        stream.flush()

    return on_round


def _clear_progress(stream) -> None:
    """Erase the rewriting progress line before the final report prints."""
    stream.write("\r" + " " * 78 + "\r")
    stream.flush()


def _command_estimate(args: argparse.Namespace) -> int:
    from repro.service import DistributionSpec, EstimateRequest, EstimationService

    backend_options = _sharded_options(args)
    if backend_options is None:
        return 2
    strategy = _resolve_strategy(args)
    request = EstimateRequest(
        n_nodes=args.n,
        distribution=DistributionSpec.from_distribution(strategy.distribution),
        n_compromised=args.compromised,
        adversary=args.adversary,
        path_model=strategy.path_model.value,
        topology=args.topology,
        backend=args.backend,
        backend_options=tuple(sorted(backend_options.items())),
        precision=args.precision,
        block_size=args.block_size,
        max_trials=args.max_trials,
        seed=args.seed,
    )
    if args.backend == "exact" and not _exact_backend_covers(
        args, strategy, request.model().topology
    ):
        return 2
    on_round = _progress_callback(sys.stderr) if args.progress else None
    with _telemetry_scope(args) as registry:
        with _profile_scope(args) as profiler:
            with EstimationService(
                cache_dir=args.cache_dir, journal=args.journal
            ) as service:
                result = service.estimate(request, on_round=on_round)
    if on_round is not None:
        _clear_progress(sys.stderr)
    report = result.report
    if args.json:
        document = {
            "digest": result.digest,
            "backend": args.backend,
            "distribution": report.distribution,
            "estimate_bits": report.estimate.mean,
            "ci_half_width_bits": result.half_width,
            "precision_target_bits": args.precision,
            "n_trials": report.n_trials,
            "rounds": result.rounds,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "from_cache": result.from_cache,
            "elapsed_seconds": result.elapsed_seconds,
            "convergence_history": [
                [trials, half_width]
                for trials, half_width in result.convergence_history
            ],
        }
        if registry is not None:
            document["telemetry"] = registry.snapshot()
        if args.metrics_file is not None:
            from repro.telemetry import write_snapshot

            write_snapshot(args.metrics_file, registry)
        if profiler is not None:
            from repro.telemetry import profile_as_dict, write_profile

            document["profile"] = profile_as_dict(profiler)
            if args.profile_file is not None:
                write_profile(args.profile_file, profiler)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    lines: dict[str, object] = {
        "backend": args.backend,
        "distribution": report.distribution,
        "precision target (bits)": args.precision,
        "achieved CI half-width": round(result.half_width, 5),
        "trials used": report.n_trials,
        "adaptive rounds": result.rounds,
        "converged": result.converged,
        "stop reason": result.stop_reason,
        "served from cache": result.from_cache,
        "request digest": result.digest[:16],
        "estimated H*": str(report.estimate),
    }
    lines.update(
        _closed_form_rows(
            request.model(),
            request.strategy().effective_distribution(args.n),
            report,
            slack=1e-9,
        )
    )
    lines["elapsed seconds"] = round(result.elapsed_seconds, 4)
    lines["cache"] = args.cache_dir or "(memory only)"
    model = request.model()
    print(
        render_key_points(
            lines,
            title=f"Adaptive estimation ({model.describe()}, backend={args.backend})",
        )
    )
    if args.metrics and result.convergence_history:
        print()
        print("-- convergence --")
        for trials, half_width in result.convergence_history:
            print(f"{trials:>12} trials  half-width {half_width:.6f} bits")
    _emit_telemetry(args, registry)
    _emit_profile(args, profiler)
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    if args.metrics_file is None and args.cache_dir is None:
        print(
            "error: stats needs --metrics-file and/or --cache-dir",
            file=sys.stderr,
        )
        return 2
    if args.metrics_file is not None:
        from repro.telemetry import (
            load_snapshot,
            render_json,
            render_prometheus,
            render_span_tree,
            render_text,
        )

        try:
            snapshot = load_snapshot(args.metrics_file)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        renderers = {
            "table": render_text,
            "json": render_json,
            "prometheus": render_prometheus,
            "spans": render_span_tree,
        }
        print(renderers[args.format](snapshot))
        environment = snapshot.get("environment")
        if args.format == "table" and environment:
            described = ", ".join(
                f"{key}={environment[key]}" for key in sorted(environment)
            )
            print(f"environment: {described}")
    if args.cache_dir is not None:
        import os.path

        from repro.service import ResultCache

        if not os.path.isdir(args.cache_dir):
            print(
                f"error: cache directory {args.cache_dir!r} does not exist",
                file=sys.stderr,
            )
            return 2
        stats = ResultCache(cache_dir=args.cache_dir).stats()
        print(render_key_points(stats.as_dict(), title="Result cache"))
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    import os.path

    from repro.service import ResultCache

    if not os.path.isdir(args.cache_dir):
        print(
            f"error: cache directory {args.cache_dir!r} does not exist",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(cache_dir=args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {args.cache_dir}")
        return 0
    stats = cache.stats()
    lines = {
        "cache dir": stats.cache_dir,
        "disk entries": stats.disk_entries,
        "disk bytes": stats.disk_bytes,
    }
    print(render_key_points(lines, title="Result cache"))
    return 0


def _command_history(args: argparse.Namespace) -> int:
    import os.path

    from repro.telemetry import RunJournal, diff_records

    if args.action in ("show", "diff") and args.digest is None:
        print(
            f"error: history {args.action} needs a request digest "
            "(any unambiguous prefix)",
            file=sys.stderr,
        )
        return 2
    if not os.path.exists(args.journal):
        print(
            f"error: journal file {args.journal!r} does not exist",
            file=sys.stderr,
        )
        return 2
    journal = RunJournal(args.journal)
    if args.action == "list":
        records = journal.query(
            digest=args.digest, backend=args.backend, limit=args.limit
        )
        if not records:
            print("(no matching records)")
            return 0
        from repro.utils.tables import format_table

        rows = [
            [
                record.digest[:16],
                record.backend,
                record.n_trials,
                f"{record.estimate_bits:.5f}",
                f"{record.ci_half_width_bits:.5f}",
                record.stop_reason,
                "cache" if record.from_cache else "computed",
                f"{record.elapsed_seconds:.3f}",
                time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(record.recorded_at)
                ),
            ]
            for record in records
        ]
        print(
            format_table(
                [
                    "digest",
                    "backend",
                    "trials",
                    "H* (bits)",
                    "half-width",
                    "stop",
                    "source",
                    "seconds",
                    "recorded",
                ],
                rows,
                title=f"Run ledger {args.journal} ({len(records)} shown)",
            )
        )
        return 0
    records = journal.query(digest=args.digest, backend=args.backend)
    if not records:
        print(
            f"error: no records match digest prefix {args.digest!r}",
            file=sys.stderr,
        )
        return 2
    digests = {record.digest for record in records}
    if len(digests) > 1:
        print(
            f"error: digest prefix {args.digest!r} is ambiguous "
            f"({len(digests)} digests match); use a longer prefix",
            file=sys.stderr,
        )
        return 2
    if args.action == "show":
        print(json.dumps(records[-1].as_dict(), indent=2, sort_keys=True))
        return 0
    if len(records) < 2:
        print(
            f"error: history diff needs two runs of {args.digest!r}, "
            f"found {len(records)}",
            file=sys.stderr,
        )
        return 2
    older, newer = records[-2], records[-1]
    differences = diff_records(older, newer)
    print(f"diff of the last two runs of {older.digest[:16]} (older vs newer)")
    for section in ("payload", "timing"):
        entries = differences[section]
        print()
        if not entries:
            print(f"{section}: identical")
            continue
        print(f"{section}:")
        for name in sorted(entries):
            left, right = entries[name]
            print(f"  {name}:")
            print(f"    - {json.dumps(left, sort_keys=True, default=str)}")
            print(f"    + {json.dumps(right, sort_keys=True, default=str)}")
    # Payload drift on one digest is a broken determinism contract.
    return 1 if differences["payload"] else 0


def _command_check(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is tooling, not part of the estimation
    # fast path.
    from repro.analysis.lint import RULES, run_check
    from repro.analysis.lint.rules import SCHEMA_SNAPSHOT_PATH, current_schemas
    from repro.analysis.lint.walker import Project, default_root

    if args.list_rules:
        rules = [{"id": rule.id, "title": rule.title} for rule in RULES]
        if args.json:
            print(json.dumps({"rules": rules}, indent=2))
        else:
            for rule in rules:
                print(f"{rule['id']}  {rule['title']}")
        return 0

    if args.update_schemas:
        project = Project(default_root() if args.root is None else args.root)
        snapshot = current_schemas(project)
        target = project.root / SCHEMA_SNAPSHOT_PATH
        target.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"pinned {len(snapshot['modules'])} modules -> {target}")
        return 0

    findings = run_check(
        root=args.root, rules=tuple(args.rules) if args.rules else None
    )
    if args.json:
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        print(
            json.dumps(
                {
                    "findings": [finding.as_dict() for finding in findings],
                    "counts": counts,
                    "total": len(findings),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        print(
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
            if findings
            else "clean: no contract findings"
        )
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        library = logging.getLogger("repro")
        library.addHandler(handler)
        library.setLevel(getattr(logging, args.log_level.upper()))
    commands = {
        "list": lambda: _command_list(),
        "figure": lambda: _command_figure(args),
        "degree": lambda: _command_degree(args),
        "optimize": lambda: _command_optimize(args),
        "compare": lambda: _command_compare(args),
        "simulate": lambda: _command_simulate(args),
        "batch": lambda: _command_batch(args),
        "estimate": lambda: _command_estimate(args),
        "stats": lambda: _command_stats(args),
        "cache": lambda: _command_cache(args),
        "history": lambda: _command_history(args),
        "check": lambda: _command_check(args),
    }
    command = commands.get(args.command)
    if command is None:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print: a normal exit,
        # not a traceback.
        sys.stderr.close()
        return 0
    except ConfigurationError as error:
        # Configuration problems (an engine refusing a domain, out-of-range
        # --compromised, an infeasible distribution, ...) are usage errors:
        # one line on stderr and exit code 2, never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
