"""One run of one workload in a fresh interpreter, launched by ``run.py``.

This file holds the workloads (stratified request menus and the seeded mix),
the clients that send their requests, and the correctness checks; the
layer spans of the traced run live in ``spans.py``.

``--phase setup`` imports the start-up surface, builds the workload's
service or backend (spawning and warming the worker pool on
``sharded-cold``), notes when it could take its first request, and exits.
``--phase run`` does the same, then sends the workload's requests in a
closed loop, one client and no think time, checks every answer once the
loop has ended, and writes one JSON record to ``--out``.

``PYTHONPATH=src python3 perfbench/child.py --build-reference`` rebuilds
``reference.json`` from high-precision runs (see :func:`build_reference`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from probe import probe

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: Probes taken around each set-up launch, on each side of it.
SETUP_PROBES = 9

# ---------------------------------------------------------------------- #
# Workloads                                                               #
# ---------------------------------------------------------------------- #

#: Crowds' coin-flip walk (``crowds-cycles`` in the CLI's catalogue):
#: forward with probability 3/4, at least one hop, cycles allowed.
CROWDS = ("geometric", (("minimum", 1), ("p_forward", 0.75)))


def uniform(low: int, high: int) -> tuple[str, tuple[tuple[str, int], ...]]:
    return ("uniform", (("high", high), ("low", low)))


@dataclasses.dataclass(frozen=True)
class Entry:
    """One menu entry of a stratum: a configuration and its requests per pass.

    A stratum is one engine x C x adversary x size class.
    """

    stratum: str
    count: int
    n_nodes: int
    distribution: tuple = ()
    n_compromised: int = 1
    adversary: str = "full_bayes"
    path_model: str = "simple"
    topology: str | None = None
    #: Trial budget of a one-shot estimate (``kernel-fixed``).
    trials: int = 0
    #: Target mean path length of an ``optimize`` request.
    mean: int = 0

    @property
    def key(self) -> str:
        """The configuration without seed or budget: its reference-table key."""
        if self.mean:
            return f"optimize N={self.n_nodes} mean={self.mean}"
        family, params = self.distribution
        shape = ",".join(f"{name}={value}" for name, value in params)
        return (
            f"N={self.n_nodes} C={self.n_compromised} {self.adversary} {self.path_model} "
            f"{self.topology or 'clique'} {family}({shape})"
        )

    @property
    def closed_form(self) -> bool:
        """True where the paper's closed form answers: C = 1, clique, simple paths."""
        return (
            not self.mean
            and self.n_compromised == 1
            and self.path_model == "simple"
            and self.topology is None
        )


@dataclasses.dataclass(frozen=True)
class Request:
    """One request of a run."""

    entry: Entry
    seed: int
    #: The pass the request belongs to; a pass holds the whole menu once.
    pass_index: int = 0
    #: Position in the mix of the earlier request this one re-submits.
    original: int | None = None


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named request mix and how its requests are answered."""

    name: str
    #: ``service`` (adaptive EstimationService requests), ``kernel``
    #: (one-shot fixed-budget estimates) or ``optimize``.
    kind: str
    entries: tuple[Entry, ...]
    #: Nominal length of one pass on the 2-core machine the mix was sized
    #: on; a run holds ``round(seconds / pass_seconds)`` passes, at least one.
    pass_seconds: float
    backend: str = "batch"
    backend_options: tuple[tuple[str, int], ...] = ()
    precision: float | None = None
    block_size: int = 10_000
    #: Re-submissions of earlier requests per pass, as a re-run sweep sends.
    resubmits: int = 0

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


def build_mix(workload: Workload, seed: int, seconds: float) -> list[Request]:
    """The run's requests, one pass after another.

    Every pass holds each menu entry its fixed count of times and the pass
    count depends on ``seconds`` only.  The per-request RNG seeds come from
    the workload, the pass and the entry, not from ``seed``, so every seed
    does identical work (adaptive rounds included); the seed picks only the
    order inside each pass and which requests of the pass are re-sent.
    """
    order = random.Random(f"{workload.name}/{seed}")
    seeds = random.Random(workload.name)
    mix: list[Request] = []
    for pass_index in range(workload.passes(seconds)):
        fresh = [
            Request(entry, seeds.randrange(1, 2**31), pass_index)
            for entry in workload.entries
            for _ in range(entry.count)
        ]
        order.shuffle(fresh)
        followers: list[list[int]] = [[] for _ in fresh]
        for _ in range(workload.resubmits):
            original = order.randrange(len(fresh))
            followers[order.randrange(original, len(fresh))].append(original)
        position: dict[int, int] = {}
        for index, request in enumerate(fresh):
            position[index] = len(mix)
            mix.append(request)
            mix.extend(
                dataclasses.replace(fresh[original], original=position[original])
                for original in followers[index]
            )
    return mix


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="adaptive-cold",
            kind="service",
            pass_seconds=3.3,
            precision=0.015,
            block_size=20_000,
            resubmits=2,
            entries=(
                # Light strata: milliseconds.
                Entry("five-class C=1 full_bayes", 1, 100, uniform(1, 20)),
                Entry(
                    "arrangement C=2 predecessor_only", 1, 100, uniform(2, 8),
                    n_compromised=2, adversary="predecessor_only",
                ),
                Entry("topology ring C=1 full_bayes", 1, 20, uniform(1, 6), topology="ring"),
                # Heavy strata: every request prices a fresh engine's classes.  The
                # counts put p50 inside the C = 2 cluster and the tail rank inside
                # the C = 5 one, which holds more than TAIL_BEYOND requests a run.
                Entry(
                    "arrangement C=3 position_aware", 1, 100, uniform(2, 8),
                    n_compromised=3, adversary="position_aware",
                ),
                Entry("topology grid C=1 full_bayes", 1, 20, uniform(1, 6), topology="grid:4x5"),
                Entry(
                    "cycle-multi C=2 full_bayes", 1, 50, CROWDS,
                    n_compromised=2, path_model="cycle_allowed",
                ),
                Entry("arrangement C=2 full_bayes", 1, 50, uniform(2, 8), n_compromised=2),
                Entry("arrangement C=2 full_bayes", 5, 100, uniform(2, 8), n_compromised=2),
                Entry("arrangement C=3 full_bayes", 4, 100, uniform(2, 8), n_compromised=3),
                Entry("arrangement C=5 full_bayes", 3, 100, uniform(2, 8), n_compromised=5),
            ),
        ),
        Workload(
            name="kernel-fixed",
            kind="kernel",
            pass_seconds=2.2,
            entries=(
                Entry("five-class C=1 full_bayes", 2, 100, uniform(1, 20), trials=2_000_000),
                Entry(
                    "arrangement C=2 predecessor_only", 2, 100, uniform(2, 8),
                    n_compromised=2, adversary="predecessor_only", trials=1_000_000,
                ),
                Entry(
                    "arrangement C=3 predecessor_only", 4, 100, uniform(2, 8),
                    n_compromised=3, adversary="predecessor_only", trials=1_000_000,
                ),
                Entry(
                    "cycle C=1 full_bayes", 2, 100, CROWDS,
                    path_model="cycle_allowed", trials=200_000,
                ),
            ),
        ),
        Workload(
            name="sharded-cold",
            kind="service",
            pass_seconds=1.8,
            backend="sharded",
            backend_options=(("shards", 2), ("workers", 2)),
            precision=0.02,
            block_size=20_000,
            entries=(
                Entry("five-class C=1 full_bayes", 2, 100, uniform(1, 20)),
                Entry("arrangement C=2 full_bayes", 3, 100, uniform(2, 8), n_compromised=2),
                Entry("arrangement C=3 full_bayes", 3, 100, uniform(2, 8), n_compromised=3),
            ),
        ),
        Workload(
            name="optimize",
            kind="optimize",
            pass_seconds=2.5,
            # p50 lands inside the mean-12 cluster, the tail rank inside the
            # mean-20 one.
            entries=(
                Entry("support 7-11", 1, 50, mean=3),
                Entry("support 7-11", 1, 100, mean=5),
                Entry("support 17-25", 1, 50, mean=8),
                Entry("support 17-25", 4, 100, mean=12),
                Entry("support 31-41", 1, 50, mean=16),
                Entry("support 31-41", 3, 100, mean=20),
            ),
        ),
    )
}

# ---------------------------------------------------------------------- #
# Clients                                                                 #
# ---------------------------------------------------------------------- #

#: How long a warm-up task holds its sharded worker, so that the other
#: workers take the other tasks of the same round.
WARM_HOLD_S = 0.05


def warm_worker(hold: float) -> int:
    """Sharded pool warm-up task: finish the worker's imports, return its pid."""
    import repro.batch.sharded  # noqa: F401  (what every shard task unpickles)

    time.sleep(hold)
    return os.getpid()


def estimate_request(workload: Workload, request: Request) -> Any:
    """The request as the service takes it; ``kernel-fixed`` borrows its model and strategy."""
    from repro.service import DistributionSpec, EstimateRequest

    entry = request.entry
    family, params = entry.distribution
    return EstimateRequest(
        n_nodes=entry.n_nodes,
        distribution=DistributionSpec(family, dict(params)),
        n_compromised=entry.n_compromised,
        adversary=entry.adversary,
        path_model=entry.path_model,
        topology=entry.topology,
        backend=workload.backend,
        backend_options=workload.backend_options,
        precision=workload.precision,
        block_size=workload.block_size,
        seed=request.seed,
    )


def report_outcome(report: Any, rounds: int, cached: bool) -> dict[str, Any]:
    estimate = report.estimate
    return {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "trials": report.n_trials,
        "rounds": rounds,
        "cached": cached,
        "bits": [estimate.mean.hex(), estimate.std_error.hex(), report.n_trials, rounds],
    }


class ServiceClient:
    """Adaptive requests to one EstimationService (``adaptive-cold``, ``sharded-cold``)."""

    def __init__(self, workload: Workload, work: Path) -> None:
        from repro.service import EstimationService

        self.workload = workload
        self.service = EstimationService(
            cache_dir=work / "cache", journal=str(work / "ledger.jsonl")
        )
        self.spawn_s = self._spawn_workers() if workload.backend == "sharded" else 0.0

    def _spawn_workers(self) -> float:
        """Start the pool the requests will use; wait until every worker has imported."""
        started = time.perf_counter()
        probe = estimate_request(self.workload, Request(self.workload.entries[0], 0))
        # The service keeps one backend per (name, options) and has no
        # warm-up call; this is the instance every request of the run reaches.
        backend = self.service._backend(probe)
        pool = backend._ensure_pool()
        ready: set[int] = set()
        for _ in range(1000):
            ready.update(pool.map(warm_worker, [WARM_HOLD_S] * backend.workers))
            if len(ready) >= backend.workers:
                return time.perf_counter() - started
        raise RuntimeError(f"only {len(ready)} of {backend.workers} sharded workers answered")

    def prepare(self, request: Request) -> Any:
        return estimate_request(self.workload, request)

    def send(self, prepared: Any) -> Any:
        return self.service.estimate(prepared)

    @staticmethod
    def outcome(result: Any) -> dict[str, Any]:
        return report_outcome(result.report, result.rounds, result.from_cache)

    def close(self) -> None:
        self.service.close()


class KernelClient:
    """One-shot fixed-budget estimates, the path of ``repro-anon batch`` (``kernel-fixed``)."""

    spawn_s = 0.0

    def __init__(self, workload: Workload, work: Path) -> None:
        from repro.batch.backends import get_backend

        self.workload = workload
        self.backend = get_backend("batch")

    def prepare(self, request: Request) -> Any:
        spec = estimate_request(self.workload, request)
        return spec.model(), spec.strategy(), request.entry.trials, request.seed

    def send(self, prepared: Any) -> Any:
        model, strategy, trials, seed = prepared
        return self.backend.estimate(model, strategy, n_trials=trials, rng=seed)

    @staticmethod
    def outcome(report: Any) -> dict[str, Any]:
        return report_outcome(report, 0, False)

    def close(self) -> None:
        pass


class OptimizeClient:
    """``repro-anon optimize --mean M --full-simplex``: a width scan, then SLSQP."""

    spawn_s = 0.0

    def __init__(self, workload: Workload, work: Path) -> None:
        from repro.core import optimizer
        from repro.core.model import SystemModel

        # Looked up at call time, so the traced run's wrappers are reached.
        self.optimizer = optimizer
        self.system_model = SystemModel

    def prepare(self, request: Request) -> Any:
        entry = request.entry
        return self.system_model(n_nodes=entry.n_nodes, n_compromised=1), entry.mean

    def send(self, prepared: Any) -> Any:
        model, mean = prepared
        scan = self.optimizer.best_uniform_for_mean(model, mean)
        outcome = self.optimizer.optimize_distribution(
            model, min_length=0, max_length=min(model.n_nodes - 1, 2 * mean), mean=mean
        )
        return scan, outcome

    @staticmethod
    def outcome(answer: Any) -> dict[str, Any]:
        scan, outcome = answer
        return {
            "scan": scan.best_degree,
            "slsqp": outcome.degree_bits,
            "iterations": outcome.iterations,
            "bits": [scan.best_degree.hex(), outcome.degree_bits.hex()],
        }

    def close(self) -> None:
        pass


CLIENTS = {"service": ServiceClient, "kernel": KernelClient, "optimize": OptimizeClient}

# ---------------------------------------------------------------------- #
# Correctness                                                             #
# ---------------------------------------------------------------------- #

#: An estimate passes within this many combined standard errors of its
#: reference: a correct engine fails by chance about once in 1.7 million.
TOLERANCE_SE = 5.0
#: Optimiser degrees must match their stored values this closely.
SCAN_TOLERANCE = 1e-9
SLSQP_TOLERANCE = 1e-6


def closed_form(workload: Workload, entry: Entry) -> float:
    from repro.core.anonymity import AnonymityAnalyzer

    spec = estimate_request(workload, Request(entry, 0))
    distribution = spec.strategy().effective_distribution(entry.n_nodes)
    return AnonymityAnalyzer(spec.model()).anonymity_degree(distribution)


def check(
    workload: Workload,
    request: Request,
    outcome: dict[str, Any],
    first: dict[str, Any] | None,
    reference: dict[str, dict[str, float]],
    closed: dict[str, float],
) -> str | None:
    """Why the answer is wrong, or ``None`` when it passes."""
    entry = request.entry
    if first is not None:
        return None if outcome["bits"] == first["bits"] else "re-submission differs from its first answer"
    if entry.mean:
        stored = reference.get(entry.key)
        if stored is None:
            return "no reference value"
        if abs(outcome["scan"] - stored["scan"]) > SCAN_TOLERANCE:
            return f"scan degree {outcome['scan']!r} != stored {stored['scan']!r}"
        if abs(outcome["slsqp"] - stored["slsqp"]) > SLSQP_TOLERANCE:
            return f"SLSQP degree {outcome['slsqp']!r} != stored {stored['slsqp']!r}"
        return None
    if entry.closed_form:
        if entry.key not in closed:
            closed[entry.key] = closed_form(workload, entry)
        expected, spread = closed[entry.key], 0.0
    else:
        stored = reference.get(entry.key)
        if stored is None:
            return "no reference value"
        expected, spread = stored["mean"], stored["std_error"]
    allowed = TOLERANCE_SE * math.hypot(outcome["std_error"], spread)
    deviation = abs(outcome["mean"] - expected)
    if deviation > allowed:
        return (
            f"estimate {outcome['mean']:.6f} lies {deviation:.3g} bits from "
            f"{expected:.6f} (allowed {allowed:.3g})"
        )
    return None


# ---------------------------------------------------------------------- #
# The run                                                                 #
# ---------------------------------------------------------------------- #


def run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (start-up surface of repro-anon, shared by every workload)

    import_s = time.perf_counter() - started
    modules = len(sys.modules)
    workload = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    client = CLIENTS[workload.kind](workload, work)
    record: dict[str, Any] = {
        "ready": time.monotonic(),
        "ready_probe_s": statistics.median(probe() for _ in range(SETUP_PROBES)),
        "import_s": import_s,
        "modules": modules,
        "spawn_s": client.spawn_s,
    }
    if args.phase == "setup":
        client.close()
        Path(args.out).write_text(json.dumps(record))
        return 0

    requests = build_mix(workload, args.seed, args.seconds)
    outcomes: list[dict[str, Any] | None] = []
    errors: dict[int, str] = {}
    latencies: list[float] = []
    #: Each request's time from the probe before it to the probe after it.
    slots: list[float] = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    phase_started = time.perf_counter()
    probes = [probe()]
    for index, request in enumerate(requests):
        slot_started = time.perf_counter()
        prepared = client.prepare(request)
        root = None
        if tracer is not None:
            tracer.request = index
            root = tracer.open("request")
        sent = time.perf_counter()
        try:
            answer = client.send(prepared)
        except Exception as error:  # a failed request is counted; the loop goes on
            answer = None
            errors[index] = f"{type(error).__name__}: {error}"
        latencies.append(time.perf_counter() - sent)
        if tracer is not None:
            tracer.close(root)
        outcomes.append(None if answer is None else client.outcome(answer))
        slots.append(time.perf_counter() - slot_started)
        probes.append(probe())
    wall_s = time.perf_counter() - phase_started
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.recording = False
    client.close()  # joins sharded workers, so RUSAGE_CHILDREN holds their peak
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.backend == "sharded":
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    closed: dict[str, float] = {}
    for index, (request, outcome) in enumerate(zip(requests, outcomes)):
        if outcome is None:
            continue
        first = None if request.original is None else outcomes[request.original]
        reason = check(workload, request, outcome, first, reference, closed)
        if reason is not None:
            errors[index] = reason
    answered = [outcome for outcome in outcomes if outcome is not None]
    cpu_s = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    record.update(
        attempted=len(requests),
        failed=len(errors),
        failures=[
            f"request {index} ({requests[index].entry.key}): {reason}"
            for index, reason in sorted(errors.items())
        ],
        latencies=latencies,
        labels=[
            request.entry.key if request.original is None else "re-sent" for request in requests
        ],
        slots=slots,
        probes=probes,
        pass_of=[request.pass_index for request in requests],
        completed=[outcome is not None for outcome in outcomes],
        passes=workload.passes(args.seconds),
        peak_rss_mb=peak_kib / 1024,
        process={
            "cpu_s": cpu_s,
            "wait_s": wall_s - cpu_s,
            "nivcsw": after.ru_nivcsw - before.ru_nivcsw,
        },
        work={
            "trials": sum(outcome.get("trials", 0) for outcome in answered),
            "rounds": sum(outcome.get("rounds", 0) for outcome in answered),
            "cache_hits": sum(1 for outcome in answered if outcome.get("cached")),
            "iterations": sum(outcome.get("iterations", 0) for outcome in answered),
        },
    )
    if tracer is not None:
        record["layers"] = tracer.layers()
        record["spans"] = len(tracer.spans)
        tracer.write(work.parent.parent / f"trace-{workload.name}-seed{args.seed}.jsonl")
    Path(args.out).write_text(json.dumps(record))
    return 0


#: Trials behind each Monte-Carlo reference value, and the seed they run at.
REFERENCE_TRIALS = 2_000_000
REFERENCE_SEED = 20020702


def build_reference() -> int:
    """Rebuild ``reference.json``: one high-precision answer per menu entry.

    Estimation entries get one REFERENCE_TRIALS-trial batch run (mean and
    standard error); optimize entries get the scan's and SLSQP's degrees.
    C = 1 clique entries need none: the closed form checks them.
    """
    table: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS.values():
        kernel = KernelClient(workload, HERE)
        optimize = OptimizeClient(workload, HERE)
        for entry in workload.entries:
            if entry.key in table or entry.closed_form:
                continue
            if entry.mean:
                answer = optimize.outcome(optimize.send(optimize.prepare(Request(entry, 0))))
                fields = ("scan", "slsqp", "iterations")
            else:
                sized = dataclasses.replace(entry, trials=REFERENCE_TRIALS)
                answer = kernel.outcome(kernel.send(kernel.prepare(Request(sized, REFERENCE_SEED))))
                fields = ("mean", "std_error", "trials")
            table[entry.key] = {field: answer[field] for field in fields}
            print(entry.key, table[entry.key], file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="One workload run in a fresh interpreter.")
    parser.add_argument("--build-reference", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.build_reference:
        return build_reference()
    if args.workload is None or args.work_dir is None or args.out is None:
        parser.error("--workload, --work-dir and --out are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
