"""Adaptive-precision estimation service with a content-addressed result cache.

This package turns the estimator backends of :mod:`repro.batch` into a
*service*: callers say what they want and how precise it must be, and the
service spends the minimum work — often zero — to answer.

:mod:`repro.service.request`
    :class:`EstimateRequest` / :class:`DistributionSpec`: a canonical,
    hashable description of one estimation job with a stable SHA-256 content
    digest.
:mod:`repro.service.cache`
    :class:`ResultCache`: in-memory LRU over an optional on-disk JSON store,
    keyed by digest, returning bit-identical reports (floats round-trip via
    ``float.hex``).
:mod:`repro.service.adaptive`
    :class:`AdaptiveScheduler`: successive trial blocks through any
    accumulating backend, merged as
    :class:`~repro.batch.estimator.BatchAccumulator`\\ s, stopping when the
    95% CI half-width reaches the precision target — deterministically per
    ``(seed, block_size)``.
:mod:`repro.service.service`
    :class:`EstimationService`: the facade — cache lookup, single-flight
    deduplication of concurrent identical requests, and one pooled backend
    per ``(name, options)``.

See ``docs/service.md`` for the request spec, the digest/determinism
contract, precision semantics, and the cache layout.
"""

from repro.service.adaptive import AdaptiveRun, AdaptiveScheduler, RoundProgress
from repro.service.cache import CachedEstimate, CacheStats, ResultCache
from repro.service.request import DistributionSpec, EstimateRequest
from repro.service.service import EstimationService, ServiceResult

__all__ = [
    "AdaptiveRun",
    "AdaptiveScheduler",
    "RoundProgress",
    "CachedEstimate",
    "CacheStats",
    "ResultCache",
    "DistributionSpec",
    "EstimateRequest",
    "EstimationService",
    "ServiceResult",
]
