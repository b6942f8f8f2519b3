"""The estimation service: adaptive precision behind a content-addressed cache.

:class:`EstimationService` is the front door the ROADMAP's serving story
plugs into: callers describe *what* they want as an
:class:`~repro.service.request.EstimateRequest` (model, distribution,
backend, seed policy, precision target) and the service decides *how much
work* that costs — zero, when the request's content digest is already cached;
otherwise the adaptive scheduler's minimum.  Properties:

* **idempotence** — identical requests return bit-identical reports, whether
  computed or served from either cache tier;
* **single-flight** — concurrent identical requests are coalesced onto one
  computation (the second caller waits on the first's future);
* **bounded concurrency** — independent requests dispatch onto a fixed-size
  worker pool (:meth:`submit` / :meth:`estimate_many`); the heavy backends
  either release the GIL in their NumPy kernels (``batch``, and ``sharded``
  blocks of at most one engine chunk) or run in worker processes (larger
  ``sharded`` blocks), so threads are the right dispatch unit;
* **backend reuse** — one backend instance per ``(name, options)`` is shared
  across requests, so e.g. the sharded worker pool spawns at most once per
  service, not once per request;
* **no start-up collection on the request path** — the first service of a
  process freezes the start-up heap, so full garbage collections during
  requests skip the tens of thousands of objects loaded at import.

Results that are not a pure function of the request — runs cut short by the
service's wall-clock ceiling — are returned but never cached.
"""

from __future__ import annotations

import gc
import logging
import os
import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.batch.backends import EstimatorBackend, get_backend
from repro.core.results import MonteCarloReport
from repro.exceptions import ConfigurationError
from repro.service.adaptive import AdaptiveRun, AdaptiveScheduler, RoundProgress
from repro.service.cache import CachedEstimate, CacheStats, ResultCache
from repro.service.request import EstimateRequest
from repro.telemetry.journal import RunJournal
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import trace_span

__all__ = ["EstimationService", "ServiceResult"]

logger = logging.getLogger(__name__)


def _freeze_startup_heap() -> None:
    """Take the start-up heap out of the cyclic collector's walks, once per process.

    The modules, classes and functions loaded at start-up (about 27 000
    tracked objects after ``import repro.cli``) live as long as the process,
    yet every full collection walks them all: about 9 ms on a 2-core Xeon
    guest (Python 3.11).  The interpreter runs its first full collection
    after a fixed number of allocations, so in a fresh process it lands on
    one of the first requests.  One explicit collection here, then
    :func:`gc.freeze`: later full collections walk only the objects created
    since, and nothing unreachable is frozen.  Nothing happens once the
    process holds frozen objects, from an earlier call or its own code.
    """
    if gc.get_freeze_count():
        return
    gc.collect()
    gc.freeze()


@dataclass(frozen=True)
class ServiceResult:
    """One answered request: the report, its provenance, and its cost."""

    digest: str
    report: MonteCarloReport
    rounds: int
    converged: bool
    stop_reason: str
    from_cache: bool
    elapsed_seconds: float
    #: Per-round ``(cumulative trials, CI half-width)`` of the run that
    #: computed the bits — replayed bit-identically on cache hits.
    trajectory: tuple[tuple[int, float], ...] = ()

    @property
    def convergence_history(self) -> tuple[tuple[int, float], ...]:
        """Per-round ``(cumulative trials, CI half-width)`` — the diagnostics
        name for :attr:`trajectory` (matches ``AdaptiveRun``)."""
        return self.trajectory

    @property
    def half_width(self) -> float:
        """Achieved 95% CI half-width in bits."""
        return self.report.estimate.ci_high - self.report.estimate.mean

    @property
    def n_trials(self) -> int:
        """Trials spent producing the report (0 for the exact backend)."""
        return self.report.n_trials

    @property
    def degree_bits(self) -> float:
        """Point estimate of the anonymity degree in bits."""
        return self.report.estimate.mean


class EstimationService:
    """Facade: cached, adaptive, concurrently-dispatched anonymity estimates.

    Parameters
    ----------
    cache_dir:
        Directory of the durable cache tier; ``None`` keeps the cache
        in-memory only (still deduplicates within the service's lifetime).
    memory_entries:
        Capacity of the in-memory LRU tier.
    max_workers:
        Size of the dispatch pool used by :meth:`submit` /
        :meth:`estimate_many`.  Synchronous :meth:`estimate` calls run on the
        caller's thread and are not queued.
    max_seconds:
        Optional per-request wall-clock ceiling.  Requests stopped by it
        return their best estimate so far, un-converged and un-cached.
    journal:
        Optional run ledger — a :class:`~repro.telemetry.journal.RunJournal`
        or a path to one.  Every answered request (computed, cache hit, or
        coalesced) appends one record; a failing append degrades to a log
        line and a counter, never to a lost result.

    The first service constructed in a process freezes the start-up heap
    (:func:`_freeze_startup_heap`), so no request pays for walking it.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        memory_entries: int = 256,
        max_workers: int = 4,
        max_seconds: float | None = None,
        journal: RunJournal | str | None = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self._cache = ResultCache(cache_dir=cache_dir, memory_entries=memory_entries)
        self._max_seconds = max_seconds
        if journal is not None and not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        self._journal = journal
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._backends: dict[tuple, EstimatorBackend] = {}
        self._closed = False
        _freeze_startup_heap()

    # ------------------------------------------------------------------ #
    # Estimation                                                          #
    # ------------------------------------------------------------------ #

    def estimate(
        self,
        request: EstimateRequest,
        on_round: Callable[[RoundProgress], None] | None = None,
    ) -> ServiceResult:
        """Answer one request synchronously (cache first, compute on miss).

        Identical concurrent requests are coalesced: if another thread is
        already computing this digest, the call waits for that result
        instead of recomputing it.  ``on_round`` (see
        :class:`~repro.service.adaptive.AdaptiveScheduler`) observes the
        adaptive rounds when this call is the one computing; cache and
        dedup hits never invoke it.
        """
        started = time.perf_counter()
        digest = request.digest()
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.counter("service_requests_total").inc()
        with trace_span("service.estimate", digest=digest[:16]) as span:
            cached = self._cache.get(digest)
            if cached is not None:
                span.annotate(outcome="cache_hit")
                return self._ledger(request, self._from_cache(digest, cached, started))
            with self._lock:
                pending = self._inflight.get(digest)
                if pending is None:
                    owner = True
                    pending = Future()
                    self._inflight[digest] = pending
                    if telemetry.enabled:
                        telemetry.gauge("service_inflight").set(len(self._inflight))
                else:
                    owner = False
            if not owner:
                if telemetry.enabled:
                    telemetry.counter("service_dedup_hits_total").inc()
                logger.debug("coalesced duplicate request %s in flight", digest[:16])
                span.annotate(outcome="dedup_hit")
                result: ServiceResult = pending.result()
                # Re-stamp the wait as this caller's elapsed time, from cache's
                # point of view: the bits were computed exactly once.
                return self._ledger(
                    request,
                    ServiceResult(
                        digest=result.digest,
                        report=result.report,
                        rounds=result.rounds,
                        converged=result.converged,
                        stop_reason=result.stop_reason,
                        from_cache=True,
                        elapsed_seconds=time.perf_counter() - started,
                        trajectory=result.trajectory,
                    ),
                )
            span.annotate(outcome="computed")
            try:
                result = self._compute(request, digest, started, on_round=on_round)
            except BaseException as error:
                pending.set_exception(error)
                raise
            else:
                pending.set_result(result)
                return self._ledger(request, result)
            finally:
                with self._lock:
                    self._inflight.pop(digest, None)
                    if telemetry.enabled:
                        telemetry.gauge("service_inflight").set(len(self._inflight))

    def submit(self, request: EstimateRequest) -> "Future[ServiceResult]":
        """Queue one request on the bounded worker pool; returns a future."""
        if self._closed:
            raise ConfigurationError("the estimation service has been closed")
        return self._pool.submit(self.estimate, request)

    def estimate_many(
        self, requests: Iterable[EstimateRequest]
    ) -> list[ServiceResult]:
        """Answer many requests in parallel, preserving input order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # Internals                                                           #
    # ------------------------------------------------------------------ #

    def _from_cache(
        self, digest: str, cached: CachedEstimate, started: float
    ) -> ServiceResult:
        return ServiceResult(
            digest=digest,
            report=cached.report,
            rounds=cached.rounds,
            converged=cached.converged,
            stop_reason=cached.stop_reason,
            from_cache=True,
            elapsed_seconds=time.perf_counter() - started,
            trajectory=cached.trajectory,
        )

    def _ledger(self, request: EstimateRequest, result: ServiceResult) -> ServiceResult:
        """Append ``result`` to the run ledger (when one is configured).

        A failing append (full disk, permissions) is counted and logged; the
        caller's just-computed result is never sacrificed to bookkeeping.
        """
        if self._journal is None:
            return result
        telemetry = get_registry()
        try:
            self._journal.record(request, result, registry=telemetry)
        except OSError as error:
            if telemetry.enabled:
                telemetry.counter("journal_failures_total").inc()
            logger.warning(
                "run-ledger append failed for %s: %s", result.digest[:16], error
            )
        else:
            if telemetry.enabled:
                telemetry.counter("journal_records_total").inc()
        return result

    def _backend(self, request: EstimateRequest) -> EstimatorBackend:
        key = (request.backend, request.backend_options)
        with self._lock:
            backend = self._backends.get(key)
            if backend is None:
                backend = get_backend(
                    request.backend, **dict(request.backend_options)
                )
                self._backends[key] = backend
        return backend

    def _compute(
        self,
        request: EstimateRequest,
        digest: str,
        started: float,
        on_round: Callable[[RoundProgress], None] | None = None,
    ) -> ServiceResult:
        scheduler = AdaptiveScheduler(
            backend=self._backend(request),
            precision=request.precision,
            block_size=request.block_size,
            max_trials=request.max_trials,
            max_seconds=self._max_seconds,
            on_round=on_round,
        )
        run: AdaptiveRun = scheduler.run(
            request.model(),
            request.strategy(),
            rng=request.seed,
            compromised=request.compromised,
        )
        if run.deterministic:
            self._cache.put(
                request,
                CachedEstimate(
                    report=run.report,
                    rounds=run.rounds,
                    converged=run.converged,
                    stop_reason=run.stop_reason,
                    trajectory=run.trajectory,
                ),
            )
        return ServiceResult(
            digest=digest,
            report=run.report,
            rounds=run.rounds,
            converged=run.converged,
            stop_reason=run.stop_reason,
            from_cache=False,
            elapsed_seconds=time.perf_counter() - started,
            trajectory=run.trajectory,
        )

    # ------------------------------------------------------------------ #
    # Cache maintenance and lifecycle                                     #
    # ------------------------------------------------------------------ #

    @property
    def cache(self) -> ResultCache:
        """The underlying two-tier result cache."""
        return self._cache

    @property
    def journal(self) -> RunJournal | None:
        """The run ledger every answered request is appended to (if any)."""
        return self._journal

    def cache_stats(self) -> CacheStats:
        """Hit/miss counters and tier sizes."""
        return self._cache.stats()

    def clear_cache(self) -> int:
        """Drop every cached result; returns the number of entries removed."""
        return self._cache.clear()

    def close(self) -> None:
        """Shut the dispatch pool down and release pooled backends."""
        self._closed = True
        self._pool.shutdown(wait=True)
        with self._lock:
            backends = list(self._backends.values())
            self._backends.clear()
        for backend in backends:
            close = getattr(backend, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
