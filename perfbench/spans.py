"""Layer spans for the traced run, recorded from the benchmark's own code.

The traced run times the calls into each layer's public functions; nothing
under ``src/`` changes.  A span records its name, start, end, parent span and
request id.  Spans stay in memory and are written out when the run ends.  A
layer's self time is its span's duration minus the part its child spans
cover; calls are synchronous on the one client thread, so child spans never
overlap and the covered part is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


class Span:
    """One timed call into a layer: name, start, end, parent span, request id."""

    __slots__ = ("ident", "name", "parent", "request", "start", "end", "covered", "attrs")

    def __init__(self, ident: int, name: str, parent: "Span | None", request: int | None) -> None:
        self.ident = ident
        self.name = name
        self.parent = parent
        self.request = request
        self.covered = 0.0
        self.attrs: dict[str, float] | None = None
        self.end = 0.0
        self.start = time.perf_counter()

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.ident,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.ident,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder for one process.

    ``request`` is the id the client sets before each request; every span
    opened until the next request carries it.  ``recording = False`` makes
    the timed calls plain pass-throughs (the checks after the request phase).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self.recording = True
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def open(self, name: str) -> Span | None:
        if not self.recording:
            return None
        span = Span(next(self._ids), name, self._stack[-1] if self._stack else None, self.request)
        self._stack.append(span)
        return span

    def close(self, span: Span | None, attrs: dict[str, float] | None = None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.covered += span.end - span.start
        span.attrs = attrs
        self.spans.append(span)

    def time_calls(
        self,
        owner: Any,
        attribute: str,
        name: str,
        observe: Callable[[Any], dict[str, float]] | None = None,
    ) -> None:
        """Record every call of ``owner.attribute`` as a span; ``observe`` reads its result."""
        raw = vars(owner)[attribute]
        static = isinstance(raw, staticmethod)
        function = raw.__func__ if static else raw
        tracer = self

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.close(span, {"errors": 1})
                raise
            tracer.close(span, None if span is None or observe is None else observe(result))
            return result

        setattr(owner, attribute, staticmethod(timed) if static else timed)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and summed attributes."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - span.covered
            for key, value in (span.attrs or {}).items():
                row[key] = row.get(key, 0) + value
        return table

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _shard_results(results: list[Any]) -> dict[str, float]:
    elapsed = [result.elapsed_seconds for result in results]
    return {"tasks": len(results), "worker_s": sum(elapsed), "slowest_s": max(elapsed)}


def install(tracer: Tracer) -> None:
    """Time every layer boundary the per-layer metrics read (see DESIGN.md)."""
    from repro.adversary.inference import BayesianPathInference
    from repro.batch.engine import BatchAccumulator, TrialEngine
    from repro.batch.estimator import BatchMonteCarlo
    from repro.batch.sharded import ShardedBackend
    from repro.core import optimizer
    from repro.core.anonymity import AnonymityAnalyzer
    from repro.service.adaptive import AdaptiveScheduler
    from repro.service.cache import ResultCache
    from repro.service.request import EstimateRequest
    from repro.telemetry.journal import RunJournal

    time_calls = tracer.time_calls
    time_calls(EstimateRequest, "digest", "service.request.digest")
    time_calls(ResultCache, "get", "service.cache.get", lambda hit: {"hits": int(hit is not None)})
    time_calls(ResultCache, "put", "service.cache.put")
    time_calls(AdaptiveScheduler, "run", "service.adaptive", lambda run: {"rounds": run.rounds})
    time_calls(RunJournal, "record", "telemetry.journal.record")
    time_calls(BatchMonteCarlo, "__post_init__", "batch.estimator.construct")
    time_calls(
        TrialEngine, "run_accumulate", "batch.engine.kernel", lambda part: {"trials": part.n_trials}
    )
    time_calls(BayesianPathInference, "posterior", "adversary.inference.posterior")
    time_calls(AnonymityAnalyzer, "analyze", "core.anonymity.analyze")
    time_calls(BatchAccumulator, "merge", "batch.engine.merge")
    time_calls(BatchAccumulator, "report", "batch.engine.report")
    time_calls(ShardedBackend, "plan", "batch.sharded.plan")
    # The block runner: each adaptive round of a sharded request fans out
    # through it, and its results carry every shard's own kernel time.
    time_calls(ShardedBackend, "_execute", "batch.sharded.block", _shard_results)
    time_calls(optimizer, "best_uniform_for_mean", "core.optimizer.scan")
    time_calls(
        optimizer,
        "optimize_distribution",
        "core.optimizer.slsqp",
        lambda outcome: {"iterations": outcome.iterations},
    )
