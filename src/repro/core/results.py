"""Statistical containers for Monte-Carlo estimates of the anonymity degree.

Every estimator backend (event, batch, sharded, exact) and the estimation
service report through these types.  The module depends on nothing but numpy
and the system model, so the engines, the service and its cache import it
without loading the discrete-event simulator.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.model import SystemModel

__all__ = [
    "EstimateWithCI",
    "MonteCarloReport",
    "summarize_samples",
    "IDENTIFIED_THRESHOLD",
]

#: Two-sided z value for a 95% normal confidence interval.
_Z_95 = 1.959963984540054

#: A posterior that puts at least this much mass on one sender counts as an
#: outright identification.  Shared by every estimator backend (event, batch,
#: exact) so identification rates stay comparable across engines.
IDENTIFIED_THRESHOLD = 1.0 - 1e-12


@dataclass(frozen=True)
class EstimateWithCI:
    """A point estimate with its standard error and 95% confidence interval."""

    mean: float
    std_error: float
    n_samples: int

    @property
    def ci_low(self) -> float:
        """Lower end of the 95% confidence interval."""
        return self.mean - _Z_95 * self.std_error

    @property
    def ci_high(self) -> float:
        """Upper end of the 95% confidence interval."""
        return self.mean + _Z_95 * self.std_error

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """True when ``value`` falls inside the (optionally widened) interval."""
        return self.ci_low - slack <= value <= self.ci_high + slack

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4f} ± {_Z_95 * self.std_error:.4f} (n={self.n_samples})"


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of a Monte-Carlo anonymity experiment."""

    estimate: EstimateWithCI
    n_trials: int
    distribution: str
    model: SystemModel
    #: Mean path length actually realised across the trials.
    mean_path_length: float
    #: Fraction of trials in which the adversary identified the sender outright.
    identification_rate: float

    @property
    def degree_bits(self) -> float:
        """Point estimate of the anonymity degree in bits."""
        return self.estimate.mean


def summarize_samples(samples: Iterable[float] | np.ndarray) -> EstimateWithCI:
    """Build an :class:`EstimateWithCI` from raw per-trial samples."""
    if isinstance(samples, np.ndarray):
        array = np.asarray(samples, dtype=float)
    else:
        array = np.asarray(list(samples), dtype=float)
    if array.size == 0:
        return EstimateWithCI(mean=0.0, std_error=math.inf, n_samples=0)
    mean = float(array.mean())
    if array.size == 1:
        return EstimateWithCI(mean=mean, std_error=math.inf, n_samples=1)
    std_error = float(array.std(ddof=1) / math.sqrt(array.size))
    return EstimateWithCI(mean=mean, std_error=std_error, n_samples=int(array.size))
