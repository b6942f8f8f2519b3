"""Two-tier, content-addressed result cache.

Results are keyed by the SHA-256 digest of their canonical
:class:`~repro.service.request.EstimateRequest` and stored in two tiers:

* an **in-memory LRU** (an ``OrderedDict`` capped at ``memory_entries``) that
  serves the hot path of a sweep or a busy service with zero I/O;
* an optional **on-disk JSON store** — one file per digest under
  ``cache_dir/<digest>.json``, written atomically — that makes results
  durable across processes and service restarts.

The contract is **bit identity**: a cached report must equal the freshly
computed one float-for-float.  JSON's decimal round-trip is not trusted for
that; every float is serialised with :meth:`float.hex` and restored with
:meth:`float.fromhex`, which round-trips IEEE-754 doubles exactly.  Each disk
entry also embeds the request's canonical form and digest, so a corrupted or
foreign file is detected (and treated as a miss) instead of being misread.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.results import EstimateWithCI, MonteCarloReport
from repro.exceptions import ConfigurationError
from repro.service.request import EstimateRequest
from repro.telemetry.metrics import get_registry

__all__ = ["CachedEstimate", "CacheStats", "ResultCache"]

logger = logging.getLogger(__name__)

#: On-disk entry schema version; bumped on incompatible layout changes and
#: whenever the bits an entry replays change.  Version 2 added the per-round
#: convergence ``trajectory``, so a cache hit replays the full convergence
#: history bit-identically (the run-ledger diff contract).  Version 3 marks
#: the arrangement and cycle engines pricing each canonical observation
#: class once, from its key alone, which changes their result bits; older
#: entries stop matching and are recomputed.  Version 4 marks every engine
#: running in chunks of one constant size, and the adaptive precision rule
#: waiting for a trial floor, both of which change result bits.  Version 5
#: marks the cycle engine drawing only the hops each trial walks and keying
#: full-Bayes walks by their canonically ordered gaps, which changes every
#: cycle-path result's bits.
ENTRY_VERSION = 5


@dataclass(frozen=True)
class CachedEstimate:
    """What the cache stores per digest: the report plus how it was reached."""

    report: MonteCarloReport
    rounds: int
    converged: bool
    stop_reason: str
    #: Per-round ``(cumulative trials, CI half-width)`` of the computing run.
    trajectory: tuple[tuple[int, float], ...] = ()

    @property
    def half_width(self) -> float:
        """Achieved 95% CI half-width in bits."""
        return self.report.estimate.ci_high - self.report.estimate.mean


@dataclass(frozen=True)
class CacheStats:
    """Counters and sizes of one :class:`ResultCache`."""

    memory_hits: int
    disk_hits: int
    misses: int
    memory_entries: int
    memory_capacity: int
    disk_entries: int
    disk_bytes: int
    cache_dir: str | None
    #: Disk writes that failed and degraded the entry to memory-only.
    write_failures: int = 0

    @property
    def hits(self) -> int:
        """Total lookups served from either tier."""
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        """Plain-dict view (CLI tables, JSON)."""
        return {
            "memory hits": self.memory_hits,
            "disk hits": self.disk_hits,
            "misses": self.misses,
            "memory entries": f"{self.memory_entries}/{self.memory_capacity}",
            "disk entries": self.disk_entries,
            "disk bytes": self.disk_bytes,
            "cache dir": self.cache_dir or "(memory only)",
        }


def _float_hex(value: float) -> str:
    return float(value).hex()


def _encode_entry(request: EstimateRequest, cached: CachedEstimate) -> dict:
    report = cached.report
    return {
        "entry_version": ENTRY_VERSION,
        "digest": request.digest(),
        "request": request.canonical_dict(),
        "result": {
            "mean": _float_hex(report.estimate.mean),
            "std_error": _float_hex(report.estimate.std_error),
            "n_samples": report.estimate.n_samples,
            "n_trials": report.n_trials,
            "distribution": report.distribution,
            "mean_path_length": _float_hex(report.mean_path_length),
            "identification_rate": _float_hex(report.identification_rate),
            "rounds": cached.rounds,
            "converged": cached.converged,
            "stop_reason": cached.stop_reason,
            # Float-hex like every other float here: the replayed history
            # must equal the computing run's bit-for-bit.
            "trajectory": [
                [trials, _float_hex(width)] for trials, width in cached.trajectory
            ],
        },
    }


def _decode_entry(data: dict, digest: str) -> CachedEstimate:
    if data.get("entry_version") != ENTRY_VERSION or data.get("digest") != digest:
        raise ValueError("cache entry does not match its digest")
    request = EstimateRequest.from_canonical_dict(data["request"])
    if request.digest() != digest:
        raise ValueError("cache entry's request does not hash to its digest")
    result = data["result"]
    report = MonteCarloReport(
        estimate=EstimateWithCI(
            mean=float.fromhex(result["mean"]),
            std_error=float.fromhex(result["std_error"]),
            n_samples=int(result["n_samples"]),
        ),
        n_trials=int(result["n_trials"]),
        distribution=str(result["distribution"]),
        model=request.model(),
        mean_path_length=float.fromhex(result["mean_path_length"]),
        identification_rate=float.fromhex(result["identification_rate"]),
    )
    return CachedEstimate(
        report=report,
        rounds=int(result["rounds"]),
        converged=bool(result["converged"]),
        stop_reason=str(result["stop_reason"]),
        trajectory=tuple(
            (int(trials), float.fromhex(width))
            for trials, width in result["trajectory"]
        ),
    )


class ResultCache:
    """In-memory LRU in front of an optional on-disk JSON store.

    Thread-safe: the service's worker threads share one instance.  With
    ``cache_dir=None`` the cache is memory-only (the default for ephemeral
    services, e.g. inside a single sweep).
    """

    def __init__(
        self, cache_dir: str | os.PathLike | None = None, memory_entries: int = 256
    ) -> None:
        if memory_entries < 1:
            raise ConfigurationError(
                f"memory_entries must be >= 1, got {memory_entries}"
            )
        # The directory is created lazily on the first write, so read-only
        # uses (stats, clear, lookups) never litter the filesystem.
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._capacity = memory_entries
        self._memory: OrderedDict[str, CachedEstimate] = OrderedDict()
        self._lock = threading.Lock()
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._write_failures = 0

    @property
    def cache_dir(self) -> Path | None:
        """Directory of the disk tier (``None`` when memory-only)."""
        return self._dir

    def _path(self, digest: str) -> Path:
        return self._dir / f"{digest}.json"

    # ------------------------------------------------------------------ #
    # Lookup / store                                                      #
    # ------------------------------------------------------------------ #

    def get(self, digest: str) -> CachedEstimate | None:
        """Return the cached result for ``digest``, or ``None`` on a miss.

        A disk hit is promoted into the memory tier.
        """
        telemetry = get_registry()
        with self._lock:
            cached = self._memory.get(digest)
            if cached is not None:
                self._memory.move_to_end(digest)
                self._memory_hits += 1
        if cached is not None:
            if telemetry.enabled:
                telemetry.counter("cache_hits_total", tier="memory").inc()
            logger.debug("cache memory hit for %s", digest[:16])
            return cached
        cached = self._read_disk(digest)
        with self._lock:
            if cached is None:
                self._misses += 1
            else:
                self._disk_hits += 1
                self._remember(digest, cached)
        if cached is None:
            if telemetry.enabled:
                telemetry.counter("cache_misses_total").inc()
            logger.debug("cache miss for %s", digest[:16])
        else:
            if telemetry.enabled:
                telemetry.counter("cache_hits_total", tier="disk").inc()
            logger.debug("cache disk hit for %s (promoted to memory)", digest[:16])
        return cached

    def put(self, request: EstimateRequest, cached: CachedEstimate) -> str:
        """Store a result under its request's digest; returns the digest.

        The memory tier always takes the entry; a failing disk write (full
        disk, permissions, a vanished directory) degrades the cache to
        memory-only for that entry instead of destroying the caller's
        just-computed result.
        """
        digest = request.digest()
        telemetry = get_registry()
        with self._lock:
            self._remember(digest, cached)
        if telemetry.enabled:
            telemetry.counter("cache_stores_total", tier="memory").inc()
        if self._dir is not None:
            payload = json.dumps(
                _encode_entry(request, cached), sort_keys=True, indent=1
            )
            path = self._path(digest)
            temporary = path.with_suffix(f".tmp.{os.getpid()}")
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
                temporary.write_text(payload, encoding="ascii")
                os.replace(temporary, path)
            except OSError:
                with self._lock:
                    self._write_failures += 1
                if telemetry.enabled:
                    telemetry.counter("cache_store_failures_total").inc()
                logger.debug(
                    "cache disk write failed for %s; entry kept in memory only",
                    digest[:16],
                )
            else:
                if telemetry.enabled:
                    telemetry.counter("cache_stores_total", tier="disk").inc()
                logger.debug("cache stored %s to %s", digest[:16], path)
        return digest

    def _remember(self, digest: str, cached: CachedEstimate) -> None:
        self._memory[digest] = cached
        self._memory.move_to_end(digest)
        while len(self._memory) > self._capacity:
            self._memory.popitem(last=False)

    def _read_disk(self, digest: str) -> CachedEstimate | None:
        if self._dir is None:
            return None
        path = self._path(digest)
        try:
            data = json.loads(path.read_text(encoding="ascii"))
            return _decode_entry(data, digest)
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt or foreign entry: a miss, never a wrong answer.
            return None

    # ------------------------------------------------------------------ #
    # Maintenance                                                         #
    # ------------------------------------------------------------------ #

    def _disk_files(self) -> list[Path]:
        if self._dir is None or not self._dir.is_dir():
            return []
        return [
            path
            for path in self._dir.iterdir()
            if path.suffix == ".json" and len(path.stem) == 64
        ]

    def stats(self) -> CacheStats:
        """Counters plus current sizes of both tiers."""
        files = self._disk_files()
        with self._lock:
            return CacheStats(
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                misses=self._misses,
                memory_entries=len(self._memory),
                memory_capacity=self._capacity,
                disk_entries=len(files),
                disk_bytes=sum(path.stat().st_size for path in files),
                cache_dir=None if self._dir is None else str(self._dir),
                write_failures=self._write_failures,
            )

    def clear(self) -> int:
        """Drop every entry from both tiers; returns the number removed."""
        files = self._disk_files()
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
        on_disk = 0
        for path in files:
            try:
                path.unlink()
                on_disk += 1
            except FileNotFoundError:
                pass
        return max(removed, on_disk) if self._dir is not None else removed
