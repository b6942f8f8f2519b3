"""Parameter sweeps over the closed-form anonymity degree.

The figures of the paper are all one-dimensional sweeps: anonymity degree as a
function of the fixed path length, of the width of a uniform distribution, of
its expectation, and so on.  The helpers here scan those families through
:class:`~repro.core.anonymity.AnonymityAnalyzer` — the exact ``H*(S)`` of one
compromised node on clique simple paths — and return plain ``(x, series)``
data that the experiment modules, the benchmarks, and the CLI render as
tables.  Sampled estimates of other configurations go through the estimator
backends (:mod:`repro.batch.backends`) or the estimation service
(:mod:`repro.service`) one request at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.distributions import FixedLength, UniformLength

__all__ = ["SweepSeries", "SweepResult", "fixed_length_sweep", "uniform_width_sweep", "uniform_mean_sweep"]


@dataclass(frozen=True)
class SweepSeries:
    """One named curve of a sweep."""

    label: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    """A complete sweep: shared x axis plus one or more curves."""

    x_label: str
    x_values: tuple[float, ...]
    series: tuple[SweepSeries, ...] = field(default_factory=tuple)

    def series_by_label(self, label: str) -> SweepSeries:
        """Look one curve up by its label."""
        for entry in self.series:
            if entry.label == label:
                return entry
        raise KeyError(f"no series labelled {label!r}")

    def as_dict(self) -> dict[str, tuple[float, ...]]:
        """Mapping of series label to values (handy for table rendering)."""
        return {entry.label: entry.values for entry in self.series}


def fixed_length_sweep(model: SystemModel, lengths: Iterable[int]) -> SweepResult:
    """Anonymity degree of ``F(l)`` for every ``l`` in ``lengths``."""
    degree = AnonymityAnalyzer(model).anonymity_degree
    lengths = tuple(int(length) for length in lengths)
    values = tuple(degree(FixedLength(length)) for length in lengths)
    return SweepResult(
        x_label="path length l",
        x_values=tuple(float(length) for length in lengths),
        series=(SweepSeries(label="F(l)", values=values),),
    )


def uniform_width_sweep(
    model: SystemModel, lower_bounds: Sequence[int], widths: Sequence[int]
) -> SweepResult:
    """Anonymity degree of ``U(a, a + w)`` for each lower bound ``a`` and width ``w``.

    This is the parameterisation of Figure 4: each lower bound produces one
    curve over the shared width axis.  Widths that would exceed the longest
    feasible simple path are reported as ``nan`` so curves remain aligned.
    """
    degree = AnonymityAnalyzer(model).anonymity_degree
    widths = tuple(int(w) for w in widths)
    series = []
    for low in lower_bounds:
        values = []
        for width in widths:
            high = low + width
            if high > model.max_simple_path_length:
                values.append(float("nan"))
                continue
            values.append(degree(UniformLength(low, high)))
        series.append(SweepSeries(label=f"U({low}, {low}+L)", values=tuple(values)))
    return SweepResult(
        x_label="range width L",
        x_values=tuple(float(w) for w in widths),
        series=tuple(series),
    )


def uniform_mean_sweep(
    model: SystemModel, lower_bounds: Sequence[int], means: Sequence[int]
) -> SweepResult:
    """Anonymity degree at equal expected length for fixed vs uniform strategies.

    This is Figure 5's parameterisation: the x axis is the expected path
    length ``L``; the curves are the fixed strategy ``F(L)`` and the uniform
    strategies ``U(a, 2L - a)`` (which have mean ``L``) for each requested
    lower bound ``a``.  Combinations where the implied upper bound is
    infeasible or below the lower bound are reported as ``nan``.
    """
    degree = AnonymityAnalyzer(model).anonymity_degree
    means = tuple(int(mean) for mean in means)
    fixed_values = []
    for mean in means:
        if mean > model.max_simple_path_length:
            fixed_values.append(float("nan"))
        else:
            fixed_values.append(degree(FixedLength(mean)))
    series = [SweepSeries(label="F(L)", values=tuple(fixed_values))]
    for low in lower_bounds:
        values = []
        for mean in means:
            high = 2 * mean - low
            if high < low or high > model.max_simple_path_length:
                values.append(float("nan"))
                continue
            values.append(degree(UniformLength(low, high)))
        series.append(SweepSeries(label=f"U({low}, 2L-{low})", values=tuple(values)))
    return SweepResult(
        x_label="expected path length L",
        x_values=tuple(float(mean) for mean in means),
        series=tuple(series),
    )
