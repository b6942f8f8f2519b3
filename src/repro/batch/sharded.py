"""Multiprocess sharding of the vectorized batch estimator.

The ``batch`` engine is bound by one interpreter; this module splits a trial
budget across worker *processes* and merges the results, scaling Monte-Carlo
throughput with cores.  The design leans on the accumulator factoring of
:mod:`repro.batch.estimator`:

* the trial budget is split into ``shards`` near-equal chunks;
* every shard gets its own sub-seed, drawn from the parent generator in shard
  order, and runs the selected :class:`~repro.batch.engine.TrialEngine` in a
  worker process;
* each worker returns only a :class:`~repro.batch.estimator.BatchAccumulator`
  — per-class counts plus a length sum, a few hundred bytes — so nothing
  per-trial (no columns, no delivery logs, no observations) ever crosses a
  process boundary;
* the parent merges accumulators by summation, in shard order, into one
  :class:`~repro.core.results.MonteCarloReport`.

Determinism
-----------
Results are a pure function of ``(seed, shards)``: sub-seeds depend only on
the parent generator state and the shard count, shards are merged in a fixed
order, and the per-shard kernels are themselves deterministic.  The worker
*count* only sizes the process pool — ``workers=1`` and ``workers=8`` produce
bit-identical reports for the same ``(seed, shards)`` pair.  ``shards``
defaults to ``workers``, so the issue-level guarantee "deterministic for a
fixed ``(seed, workers)`` pair" holds, and pinning ``shards`` explicitly makes
results independent of the machine's parallelism.

Workers are started with the ``spawn`` method (never ``fork``), so the backend
is safe under threaded parents and behaves identically across platforms; the
worker entry point is a module-level function whose payload is just the
(picklable) model, strategy, trial count, sub-seed, engine class and
compromised set.  Each worker takes its engine from its own process-wide
cache (:func:`~repro.batch.engine.shared_engine`), so it builds and prices a
configuration once for the life of the pool, not once per task.

Registered as the ``"sharded"`` estimator backend; reach it anywhere a backend
name is accepted::

    estimate_anonymity(model, strategy, n_trials=2_000_000,
                       backend="sharded", workers=8)
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
import weakref
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.batch.backends import EstimatorBackend, register_backend
from repro.batch.engine import TrialEngine, select_engine, shared_engine
from repro.batch.estimator import BatchAccumulator
from repro.core.model import SystemModel
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.telemetry.metrics import get_registry
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:
    from multiprocessing.sharedctypes import Synchronized

__all__ = [
    "ShardedBackend",
    "ShardTask",
    "ShardResult",
    "split_trials",
    "default_workers",
]

logger = logging.getLogger(__name__)

#: Hard ceiling on the worker pool; sharding gains flatten out well before
#: this on any current machine, and it bounds accidental fork bombs.
_MAX_WORKERS = 64


def default_workers() -> int:
    """Worker count used when none is requested: the visible CPU count."""
    return max(1, min(os.cpu_count() or 1, _MAX_WORKERS))


def split_trials(n_trials: int, shards: int) -> tuple[int, ...]:
    """Split a trial budget into ``shards`` near-equal positive chunks.

    The first ``n_trials % shards`` chunks carry one extra trial; chunks that
    would be empty (more shards than trials) are dropped, so every returned
    entry is positive and the total is exactly ``n_trials``.
    """
    n_trials = check_positive_int(n_trials, "n_trials")
    shards = check_positive_int(shards, "shards")
    base, extra = divmod(n_trials, shards)
    sizes = tuple(
        base + (1 if index < extra else 0) for index in range(shards)
    )
    return tuple(size for size in sizes if size)


@dataclass(frozen=True)
class ShardTask:
    """One worker's unit of work: a kernel configuration plus a sub-seed.

    ``engine`` is the :class:`~repro.batch.engine.TrialEngine` class the
    parent resolved through :func:`~repro.batch.engine.select_engine`.  It is
    pickled *by reference*, so a worker builds (or reuses, see
    :func:`~repro.batch.engine.shared_engine`) exactly the engine the parent
    chose without consulting its own (process-local) registry — a
    user-registered engine therefore shards correctly as long as its class
    lives in an importable module, the standard constraint on any
    multiprocessing payload.
    """

    model: SystemModel
    strategy: PathSelectionStrategy
    n_trials: int
    seed: int
    engine: Callable[..., TrialEngine]
    #: The compromised identities the engine runs with.
    compromised: frozenset[int]


@dataclass(frozen=True)
class ShardResult:
    """What one worker sends back: the accumulator plus its own timings.

    The timing fields ride along so the *parent* can feed per-shard worker
    metrics into its telemetry registry — workers run in separate processes
    whose registries are independent (and, under ``spawn``, start disabled),
    so measurements must travel with the result.  They are measured with
    :func:`time.perf_counter` in the worker unconditionally: one clock pair
    per shard is far below measurement noise, and keeping them unconditional
    means shard results are identical whether or not the parent collects.
    """

    accumulator: BatchAccumulator
    #: Wall-clock seconds the worker spent inside the kernel.
    elapsed_seconds: float
    #: Trials this shard ran (== ``accumulator.n_trials``; kept explicit so a
    #: result is self-describing without unpickling the accumulator).
    n_trials: int
    #: Name of the engine the kernel resolved to (telemetry label).
    engine_name: str
    #: Wall-clock seconds the worker spent obtaining its engine: a build on a
    #: cache miss, one lookup on a hit.
    construct_seconds: float
    #: Whether the worker's engine cache already held the engine.
    engine_reused: bool


def _run_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: run one batch kernel, return its timed result.

    Module-level (hence picklable by reference) so it works under the
    ``spawn`` start method, where the child imports this module afresh.
    The kernel comes from the worker's engine cache, so the tasks of one
    configuration build it once per worker.
    """
    # Elapsed-time *reporting* only — never feeds the accumulator bits.
    started = time.perf_counter()  # repro: ignore[R001]
    kernel, reused = shared_engine(
        task.engine, task.model, task.strategy, task.compromised
    )
    built = time.perf_counter()  # repro: ignore[R001]
    accumulator = kernel.run_accumulate(task.n_trials, rng=task.seed)
    return ShardResult(
        accumulator=accumulator,
        elapsed_seconds=time.perf_counter() - built,  # repro: ignore[R001]
        n_trials=task.n_trials,
        engine_name=kernel.name,
        construct_seconds=built - started,
        engine_reused=reused,
    )


def _allowed_cpus() -> tuple[int, ...]:
    """The CPUs this process may run on, ascending; empty where the OS cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return ()
    return tuple(sorted(os.sched_getaffinity(0)))


def _bind_worker(counter: "Synchronized[int]", cpus: tuple[int, ...]) -> None:
    """Pool initializer: bind each worker, in start order, to a CPU of its own."""
    with counter.get_lock():
        index = counter.value
        counter.value += 1
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


class ShardedBackend(EstimatorBackend):
    """Multiprocess estimator backend: sharded trial-engine kernels.

    Parameters
    ----------
    workers:
        Size of the process pool (default: the CPU count).  ``workers=1``
        runs the shards inline in the parent process — no pool, no spawn
        cost — which is also what makes single-core CI runs cheap.
    shards:
        Number of seed streams the trial budget is split into (default:
        ``workers``).  Fixing ``shards`` makes results independent of
        ``workers``; see the module docstring for the determinism contract.

    The worker pool is created lazily on the first pooled :meth:`estimate`
    and *reused* across calls, so a sweep that evaluates many points through
    one backend instance pays the spawn start-up once, not per point.  The
    pool is released by :meth:`close` (the backend is also a context
    manager) or, failing that, when the backend is garbage-collected.

    A pool with one worker per CPU the process may run on binds each worker
    to a CPU of its own (Linux).  Left to the scheduler, the workers of a
    block are woken together and can land on one CPU; a shard of a few
    milliseconds ends before the load balancer moves either, and the pair
    then often stays put, so a whole run's shards execute one after the
    other.  Smaller pools leave placement to the scheduler, so several
    pools on a larger machine do not pile onto the same CPUs.

    Each worker resolves its kernel from the picklable task alone, through
    its own process-wide engine cache
    (:func:`~repro.batch.engine.shared_engine`): the first task of a
    configuration builds the engine and prices the classes it meets, and
    every later task of that configuration on the same worker — later
    shards, later adaptive rounds, later requests — reuses both.  An
    adaptive run therefore pays construction at most once per worker, not
    once per shard per round.  A class's price is a function of its key
    alone, so a reused engine returns the same bits as a fresh one and
    reports stay a pure function of ``(seed, shards)``.
    """

    name = "sharded"

    def __init__(
        self,
        workers: int | None = None,
        shards: int | None = None,
    ) -> None:
        workers = (
            default_workers() if workers is None else check_positive_int(workers, "workers")
        )
        if workers > _MAX_WORKERS:
            raise ConfigurationError(
                f"workers must be <= {_MAX_WORKERS}, got {workers}"
            )
        shards = workers if shards is None else check_positive_int(shards, "shards")
        self.workers = workers
        self.shards = shards
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None

    def estimate(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int = 10_000,
        rng: RandomSource = None,
    ):
        """Estimate ``H*(S)`` across the worker pool; one ``MonteCarloReport``."""
        tasks = self.plan(model, strategy, n_trials, rng=rng)
        accumulators = self._merge_telemetry(self._execute(tasks))
        distribution = strategy.effective_distribution(model.n_nodes)
        return BatchAccumulator.merge(accumulators).report(model, distribution.name)

    def accumulate_runner(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int] | None = None,
    ):
        """Block-accumulation hook for the adaptive service.

        Returns a callable ``(n_trials, rng) -> BatchAccumulator`` that runs
        one block across the worker pool and merges it to a single
        accumulator.  Each block is planned from its own ``rng`` exactly like
        a standalone :meth:`estimate`, so a block remains deterministic per
        ``(seed, shards)`` and independent of the worker count.
        ``compromised`` names the compromised identities; ``None`` keeps the
        model's canonical set.
        """

        def run_block(n_trials: int, rng: RandomSource = None) -> BatchAccumulator:
            tasks = self.plan(
                model, strategy, n_trials, rng=rng, compromised=compromised
            )
            accumulators = self._merge_telemetry(self._execute(tasks))
            return BatchAccumulator.merge(accumulators)

        return run_block

    @staticmethod
    def _merge_telemetry(results: "list[ShardResult]") -> list[BatchAccumulator]:
        """Fold worker-side timings into the parent registry; the accumulators.

        Worker processes measure their own engine lookup and kernel wall
        time (see :class:`ShardResult`); the parent is where a live registry
        can exist, so the per-shard histograms and counters are recorded
        here, in shard order.  With telemetry disabled this is a plain unwrap.
        """
        telemetry = get_registry()
        if telemetry.enabled:
            for result in results:
                telemetry.counter(
                    "sharded_shards_total", engine=result.engine_name
                ).inc()
                telemetry.counter(
                    "sharded_trials_total", engine=result.engine_name
                ).inc(result.n_trials)
                telemetry.histogram(
                    "sharded_shard_seconds", engine=result.engine_name
                ).observe(result.elapsed_seconds)
                telemetry.histogram(
                    "sharded_construct_seconds", engine=result.engine_name
                ).observe(result.construct_seconds)
                if result.engine_reused:
                    telemetry.counter(
                        "sharded_engine_reuses_total", engine=result.engine_name
                    ).inc()
        return [result.accumulator for result in results]

    def plan(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        n_trials: int,
        rng: RandomSource = None,
        compromised: frozenset[int] | None = None,
    ) -> list[ShardTask]:
        """Deterministic shard plan: chunk sizes plus per-shard sub-seeds.

        Sub-seeds are drawn from the parent generator in shard order — the
        whole plan, and therefore the final estimate, is a pure function of
        the parent seed and the shard count.  The trial engine is resolved
        *here*, in the parent, so user-registered engines reach the workers
        (see :class:`ShardTask`).  ``compromised`` names the compromised
        identities; ``None`` keeps the model's canonical set.
        """
        generator = ensure_rng(rng)
        compromised = frozenset(
            model.compromised_nodes() if compromised is None else compromised
        )
        engine = select_engine(model, strategy, compromised)
        logger.debug(
            "planned %d shard(s) of %d trial(s) on engine %r (workers=%d)",
            self.shards,
            n_trials,
            getattr(engine, "name", engine),
            self.workers,
        )
        return [
            ShardTask(
                model=model,
                strategy=strategy,
                n_trials=size,
                seed=int(generator.integers(0, 2**63 - 1)),
                engine=engine,
                compromised=compromised,
            )
            for size in split_trials(n_trials, self.shards)
        ]

    def _execute(self, tasks: list[ShardTask]) -> list[ShardResult]:
        if self.workers == 1 or len(tasks) == 1:
            return [_run_shard(task) for task in tasks]
        return list(self._ensure_pool().map(_run_shard, tasks))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("spawn")
            cpus = _allowed_cpus()
            initializer, initargs = None, ()
            if self.workers == len(cpus):
                initializer, initargs = _bind_worker, (context.Value("i", 0), cpus)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            )
            # The finalizer references the pool, never the backend, so the
            # backend stays collectable and the workers are joined when it is.
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=True
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later call re-creates it)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


register_backend(ShardedBackend.name, ShardedBackend)
