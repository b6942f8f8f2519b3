"""Repo benchmark: four closed-loop workloads of the anonymity-degree estimator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adaptive-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest [--workload NAME] [--seeds 10] [--seconds 4]

Every run starts fresh interpreters (``child.py``): SETUP_LAUNCHES
set-up-only launches, then the measured launch, which sends the workload's
requests in a closed loop and checks every answer.  ``setup_s`` is the
median start-up over all of them.  Every timed end-to-end metric is at the
reference machine speed of ``probe.py``; the ``summary`` line also gives
them as measured (``raw``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it, ``summary {...}``, names the
tail percentile and its request count, the latency bands around p50 and
the tail rank, the work counters and the process counters.
DESIGN.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SETUP_PROBES, WORKLOADS, build_mix
from probe import probe, scales

HERE = Path(__file__).resolve().parent
#: Set-up-only launches before the measured one.
SETUP_LAUNCHES = 3
#: Every run ends within this many seconds.
RUN_LIMIT_S = 170.0
#: Requests that must lie beyond the tail percentile.
TAIL_BEYOND = 10
#: Thread pools a child's numeric libraries may start: one, so a closed
#: loop on a shared 2-core machine has no hidden parallelism.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env(root: Path, work: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def launch(args: argparse.Namespace, phase: str, root: Path, work: Path, deadline: float) -> dict:
    """One fresh interpreter in its own temp directory; its record, with setup_s."""
    here = work / f"{phase}-{len(list(work.iterdir()))}"
    here.mkdir()
    out = here / "record.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--phase", phase,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace if phase == "run" else 0),
        "--work-dir", str(here), "--out", str(out),
    ]
    before = statistics.median(probe() for _ in range(SETUP_PROBES))
    started = time.monotonic()
    completed = subprocess.run(
        command,
        cwd=root,
        env=child_env(root, here),
        stdout=sys.stderr,
        timeout=max(1.0, deadline - started),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"the {phase} launch exited with code {completed.returncode}")
    record = json.loads(out.read_text(encoding="utf-8"))
    record["setup_raw_s"] = record["ready"] - started
    # The launch at the reference speed: probes in this process just before
    # it and in the child just after it was ready (see probe.py).
    record["setup_s"] = record["setup_raw_s"] * scales([before, record["ready_probe_s"]])[0]
    return record


def nearest_rank(ordered: list[float], percentile: float) -> float:
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND requests beyond it."""
    return max(50, math.floor(100 * (count - TAIL_BEYOND) / count))


def timed(record: dict, scaled: bool = True) -> tuple[list[float], list[float]]:
    """The run's request latencies and per-pass request rates.

    With ``scaled``, each request's times are taken to the reference speed
    by the probes on either side of it (see probe.py); without, as measured.
    A pass's rate is its completed requests over the sum of its requests'
    slots, the time from the probe before each to the probe after it.
    """
    factors = scales(record["probes"]) if scaled else [1.0] * len(record["latencies"])
    latencies = [latency * factor for latency, factor in zip(record["latencies"], factors)]
    busy: dict[int, float] = {}
    done: dict[int, int] = {}
    for index, slot, factor, ok in zip(
        record["pass_of"], record["slots"], factors, record["completed"]
    ):
        busy[index] = busy.get(index, 0.0) + slot * factor
        done[index] = done.get(index, 0) + ok
    return latencies, [done[index] / busy[index] for index in sorted(busy)]


def end_to_end(record: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    latencies, rates = timed(record)
    ordered = sorted(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "request_p50_s": (statistics.median(ordered), "s"),
        "request_tail_s": (nearest_rank(ordered, tail_percentile(len(ordered))), "s"),
        "requests_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MiB"),
    }


def per_layer(record: dict) -> dict[str, tuple[float, str]]:
    """The traced run's layer metrics; every ``_s`` is a self time (see DESIGN.md)."""
    layers = record["layers"]

    def get(table: dict, name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def self_s(name: str) -> float:
        return get(layers, name, "self_s")

    request_s = get(layers, "request", "total_s")
    kernel_s = self_s("batch.engine.kernel")
    trials = get(layers, "batch.engine.kernel", "trials")
    block_s = get(layers, "batch.sharded.block", "total_s")
    optimizer_s = self_s("core.optimizer.scan") + self_s("core.optimizer.slsqp")
    construct_price_s = (
        self_s("batch.estimator.construct")
        + self_s("adversary.inference.posterior")
        + self_s("core.anonymity.analyze")
    )
    hits = get(layers, "service.cache.get", "hits")
    latencies, rates = timed(record)
    return {
        "startup.import_s": (record["import_s"], "s"),
        "startup.modules": (record["modules"], "count"),
        "batch.estimator.construct_s": (self_s("batch.estimator.construct"), "s"),
        "batch.estimator.constructs": (get(layers, "batch.estimator.construct", "calls"), "count"),
        "adversary.inference.posteriors": (
            get(layers, "adversary.inference.posterior", "calls"), "count"
        ),
        "adversary.inference.posterior_s": (self_s("adversary.inference.posterior"), "s"),
        "core.anonymity.analyses": (get(layers, "core.anonymity.analyze", "calls"), "count"),
        "core.anonymity.analyze_s": (self_s("core.anonymity.analyze"), "s"),
        "batch.engine.trials": (trials, "count"),
        "batch.engine.kernel_s": (kernel_s, "s"),
        "batch.engine.trials_per_s": (trials / kernel_s if kernel_s else 0.0, "1/s"),
        "batch.engine.merge_s": (self_s("batch.engine.merge"), "s"),
        "batch.engine.report_s": (self_s("batch.engine.report"), "s"),
        "service.adaptive.rounds": (get(layers, "service.adaptive", "rounds"), "count"),
        "service.adaptive.self_s": (self_s("service.adaptive"), "s"),
        "service.request.digest_s": (self_s("service.request.digest"), "s"),
        "service.cache.get_s": (self_s("service.cache.get"), "s"),
        "service.cache.put_s": (self_s("service.cache.put"), "s"),
        "service.cache.hits": (hits, "count"),
        "service.cache.misses": (get(layers, "service.cache.get", "calls") - hits, "count"),
        "telemetry.journal.record_s": (self_s("telemetry.journal.record"), "s"),
        "batch.sharded.spawn_s": (record["spawn_s"], "s"),
        "batch.sharded.tasks": (get(layers, "batch.sharded.block", "tasks"), "count"),
        "batch.sharded.plan_s": (self_s("batch.sharded.plan"), "s"),
        "batch.sharded.worker_s": (get(layers, "batch.sharded.block", "worker_s"), "s"),
        "batch.sharded.wait_s": (block_s - get(layers, "batch.sharded.block", "slowest_s"), "s"),
        "core.optimizer.iterations": (get(layers, "core.optimizer.slsqp", "iterations"), "count"),
        "core.optimizer.self_s": (optimizer_s, "s"),
        "process.cpu_s": (record["process"]["cpu_s"], "s"),
        "process.wait_s": (record["process"]["wait_s"], "s"),
        "process.nivcsw": (record["process"]["nivcsw"], "count"),
        "process.probe_s": (statistics.median(record["probes"]), "s"),
        "share.construct_price": (construct_price_s / request_s, "ratio"),
        "share.kernel": (kernel_s / request_s, "ratio"),
        "share.sharded": (block_s / request_s, "ratio"),
        "share.closed_form_optimizer": (
            (self_s("core.anonymity.analyze") + optimizer_s) / request_s, "ratio"
        ),
        "share.unattributed": (self_s("request") / request_s, "ratio"),
        "trace.spans": (record["spans"], "count"),
        "trace.request_p50_s": (statistics.median(latencies), "s"),
        "trace.requests_per_s": (statistics.median(rates), "1/s"),
    }


def strata(record: dict, latencies: list[float]) -> dict[str, list[float]]:
    """Per menu entry: requests, and the least, median and largest latency."""
    by_label: dict[str, list[float]] = {}
    for label, latency in zip(record["labels"], latencies):
        by_label.setdefault(label, []).append(latency)
    return {
        label: [len(values), min(values), statistics.median(values), max(values)]
        for label, values in sorted(by_label.items(), key=lambda item: statistics.median(item[1]))
    }


def summary(args: argparse.Namespace, record: dict, launches: list[dict]) -> dict:
    """What the result line leaves out; every time is at the reference speed unless ``raw``."""
    latencies, rates = timed(record)
    ordered = sorted(latencies)
    tail = tail_percentile(len(ordered))
    measured, measured_rates = timed(record, scaled=False)
    quartiles = statistics.quantiles(record["probes"], n=4)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": record["passes"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "tail": f"p{tail} of {len(ordered)} requests",
        "p50_band_s": [nearest_rank(ordered, 45), nearest_rank(ordered, 55)],
        "tail_band_s": [nearest_rank(ordered, tail - 5), nearest_rank(ordered, min(100, tail + 5))],
        "setup_samples_s": [launch["setup_s"] for launch in launches],
        "pass_rates": rates,
        "probe_quartiles_s": quartiles,
        "raw": {
            "setup_s": statistics.median(launch["setup_raw_s"] for launch in launches),
            "request_p50_s": statistics.median(measured),
            "request_tail_s": nearest_rank(sorted(measured), tail),
            "requests_per_s": statistics.median(measured_rates),
        },
        "strata": strata(record, latencies),
        "work": record["work"],
        "process": record["process"],
        "failures": record["failures"][:10],
    }


def bench(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout that holds src/repro", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        count = 0 if args.trace else SETUP_LAUNCHES
        launches = [launch(args, "setup", root, work, deadline) for _ in range(count)]
        record = launch(args, "run", root, work, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    launches.append(record)
    setups = [launch["setup_s"] for launch in launches]
    metrics = per_layer(record) if args.trace else end_to_end(record, setups)
    print("summary " + json.dumps(summary(args, record, launches)))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------- #
# The benchmark's own test                                                #
# ---------------------------------------------------------------------- #

#: Work counters a repeated seed must reproduce exactly.
COUNTERS = (
    "batch.engine.trials",
    "service.adaptive.rounds",
    "adversary.inference.posteriors",
    "core.anonymity.analyses",
    "core.optimizer.iterations",
    "batch.sharded.tasks",
)

#: The layer split each workload exists for: (share, bound, bound is a floor).
SPLITS = {
    "adaptive-cold": (("share.construct_price", 0.5, True), ("share.kernel", 0.2, False)),
    "kernel-fixed": (("share.kernel", 0.5, True), ("share.construct_price", 0.2, False)),
    "sharded-cold": (("share.sharded", 0.5, True),),
    "optimize": (("share.closed_form_optimizer", 0.5, True),),
}


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=200,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr[-3000:]}")
    lines = completed.stdout.splitlines()
    found = next(line for line in lines if line.startswith("summary "))
    return json.loads(lines[-1]), json.loads(found[len("summary "):])


def selftest(args: argparse.Namespace) -> int:
    """Steady work per seed, the intended layer split, and the tracing overhead."""
    problems: list[str] = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        workload = WORKLOADS[name]
        print(f"== {name}", flush=True)
        mix = build_mix(workload, 1, args.seconds)
        if mix != build_mix(workload, 1, args.seconds):
            problems.append(f"{name}: a repeated seed gave another request list")
        other = build_mix(workload, 2, args.seconds)
        fresh = [sorted((r.entry.key, r.seed) for r in m if r.original is None) for m in (mix, other)]
        if fresh[0] != fresh[1]:
            problems.append(f"{name}: two seeds gave different work")
        runs = {seed: invoke(name, seed, args.seconds, 1) for seed in range(1, args.seeds + 1)}
        repeat, _ = invoke(name, 1, args.seconds, 1)
        for counter in COUNTERS:
            values = [result["metrics"][counter]["value"] for result, _ in runs.values()]
            if repeat["metrics"][counter]["value"] != values[0]:
                problems.append(f"{name}: {counter} differs on a repeated seed")
            if max(values):
                spread = (max(values) - min(values)) / statistics.median(values)
                print(f"  {counter}: {min(values)}..{max(values)} over {len(values)} seeds "
                      f"(spread {spread:.2%})")
        failed = sum(result["failed"] for result, _ in runs.values())
        if failed:
            problems.append(f"{name}: {failed} failed requests over {len(runs)} traced runs")
        metrics = runs[1][0]["metrics"]
        shares = {key: value["value"] for key, value in metrics.items() if key.startswith("share.")}
        print("  shares of request time: " + ", ".join(f"{k[6:]} {v:.1%}" for k, v in shares.items()))
        for share, bound, floor in SPLITS[name]:
            met = shares[share] >= bound if floor else shares[share] <= bound
            print(f"  {share} {'>=' if floor else '<='} {bound}: {'ok' if met else 'MISSED'}")
            if not met:
                problems.append(f"{name}: {share} = {shares[share]:.3f} misses {bound}")
        untraced, bands = invoke(name, 1, args.seconds, 0)
        plain = untraced["metrics"]
        print(
            "  tracing overhead: request_p50_s "
            f"{metrics['trace.request_p50_s']['value'] / plain['request_p50_s']['value'] - 1:+.1%}, "
            "requests_per_s "
            f"{metrics['trace.requests_per_s']['value'] / plain['requests_per_s']['value'] - 1:+.1%}"
        )
        print(f"  bands: p45..p55 {bands['p50_band_s']}, {bands['tail']} band {bands['tail_band_s']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
