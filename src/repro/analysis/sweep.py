"""Parameter sweeps over the anonymity-degree engine.

The figures of the paper are all one-dimensional sweeps: anonymity degree as a
function of the fixed path length, of the width of a uniform distribution, of
its expectation, and so on.  The helpers here run those sweeps and return
plain ``(x, series)`` data that the experiment modules, the benchmarks, and
the CLI render as tables.

Every sweep accepts a ``backend`` argument naming an estimator engine from
:mod:`repro.batch.backends` (``"exact"`` — the default closed form, ``"event"``
— hop-by-hop Monte-Carlo, ``"batch"`` — the vectorized columnar estimator,
``"sharded"`` — multiprocess batch kernels), so figure reproductions can be
re-run on the sampling fast path without touching the sweep logic.
Backend-specific options (e.g. ``{"workers": 8}`` for ``sharded``) pass
through ``backend_options``.  Monte-Carlo backends draw one independent child
stream per sweep point from ``rng``, so a fixed seed reproduces the whole
sweep.

Sweeps can also run **precision-driven and cache-warm** through the
estimation service (:mod:`repro.service`): passing ``precision`` (a target
95% CI half-width in bits) and/or a shared
:class:`~repro.service.service.EstimationService` routes every point through
content-addressed :class:`~repro.service.request.EstimateRequest`\\ s.  Each
point then spends only the trials its precision target needs (``n_trials``
becomes the per-point ceiling), and repeating a sweep against the same
service — or a service backed by the same ``cache_dir`` — serves repeated
points from the cache bit-identically instead of recomputing them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.batch.backends import get_backend
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import AdversaryModel, SystemModel
from repro.distributions import FixedLength, PathLengthDistribution, UniformLength
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.rng import RandomSource, ensure_rng, spawn_child_rng

__all__ = ["SweepSeries", "SweepResult", "fixed_length_sweep", "uniform_width_sweep", "uniform_mean_sweep", "adversary_model_sweep"]


def _degree_evaluator(
    model: SystemModel,
    backend: str,
    n_trials: int,
    rng: RandomSource,
    backend_options: dict | None = None,
    precision: float | None = None,
    service=None,
) -> Callable[[PathLengthDistribution], float]:
    """Build the per-distribution degree function for one sweep.

    The default ``"exact"`` backend keeps the historical behaviour (and cost)
    of calling the closed form directly; any other name is resolved by
    :func:`~repro.batch.backends.get_backend` and evaluated with ``n_trials``
    samples per point, with ``backend_options`` forwarded to the backend's
    constructor.

    When ``precision`` and/or ``service`` is given the sweep goes through the
    estimation service instead: each point becomes an ``EstimateRequest``
    (precision target, ``n_trials`` as the trial ceiling, per-point seeds
    drawn from ``rng`` in point order) answered adaptively and cached by
    content digest.  Passing only ``service`` keeps the fixed ``n_trials``
    budget per point — the same sweep, just cache-warm.  ``backend="exact"``
    is promoted to ``"batch"`` in this mode — a zero-variance engine has
    nothing to adapt.
    """
    if precision is not None or service is not None:
        return _service_evaluator(
            model, backend, n_trials, rng, backend_options, precision, service
        )
    if backend == "exact":
        if backend_options:
            raise ConfigurationError(
                f"backend_options {sorted(backend_options)} only apply to "
                "sampling backends; the 'exact' backend takes none "
                "(pass e.g. backend='sharded' to use workers/shards)"
            )
        if not model.clique_routing:
            # The closed forms assume a clique; exact topology sweeps go
            # through full enumeration (small N only — it raises beyond).
            from repro.core.enumeration import ExhaustiveAnalyzer

            return ExhaustiveAnalyzer(model).anonymity_degree
        return AnonymityAnalyzer(model).anonymity_degree
    generator = ensure_rng(rng)
    # Resolve the backend once per sweep so stateful engines (e.g. the
    # sharded backend's worker pool) are reused across every sweep point.
    engine = get_backend(backend, **(backend_options or {}))

    def evaluate(distribution: PathLengthDistribution) -> float:
        # The model's path model rides along: a CYCLE_ALLOWED model sweeps
        # Crowds-style walk strategies through the cycle engine.
        strategy = PathSelectionStrategy(
            name=distribution.name,
            distribution=distribution,
            path_model=model.path_model,
        )
        report = engine.estimate(
            model,
            strategy,
            n_trials=n_trials,
            rng=spawn_child_rng(generator),
        )
        return report.degree_bits

    return evaluate


def _service_evaluator(
    model: SystemModel,
    backend: str,
    n_trials: int,
    rng: RandomSource,
    backend_options: dict | None,
    precision: float | None,
    service,
) -> Callable[[PathLengthDistribution], float]:
    """Per-distribution degree function routed through the estimation service."""
    from repro.service import DistributionSpec, EstimateRequest, EstimationService

    if service is None:
        # An ephemeral, memory-only service still deduplicates points that
        # recur within this one sweep; pass a shared service for cross-sweep
        # (or on-disk) cache warmth.
        service = EstimationService()
    if not isinstance(service, EstimationService):
        raise ConfigurationError(
            f"service must be an EstimationService, got {service!r}"
        )
    backend_name = "batch" if backend == "exact" else backend
    generator = ensure_rng(rng)

    def evaluate(distribution: PathLengthDistribution) -> float:
        request = EstimateRequest(
            n_nodes=model.n_nodes,
            distribution=DistributionSpec.from_distribution(distribution),
            n_compromised=model.n_compromised,
            adversary=model.adversary.value,
            receiver_compromised=model.receiver_compromised,
            path_model=model.path_model.value,
            topology=None if model.topology is None else model.topology.spec,
            backend=backend_name,
            backend_options=tuple(sorted((backend_options or {}).items())),
            # precision=None keeps the sweep's fixed n_trials budget — passing
            # only service= means "the same sweep, but cache-warm".
            precision=precision,
            block_size=min(10_000, n_trials),
            max_trials=n_trials,
            seed=int(generator.integers(0, 2**63 - 1)),
        )
        return service.estimate(request).degree_bits

    return evaluate


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


def fixed_length_sweep(
    model: SystemModel,
    lengths: Iterable[int],
    backend: str = "exact",
    n_trials: int = 10_000,
    rng: RandomSource = None,
    backend_options: dict | None = None,
    precision: float | None = None,
    service=None,
) -> SweepResult:
    """Anonymity degree of ``F(l)`` for every ``l`` in ``lengths``."""
    degree = _degree_evaluator(
        model, backend, n_trials, rng, backend_options, precision, service
    )
    lengths = tuple(int(length) for length in lengths)
    values = tuple(degree(FixedLength(length)) for length in lengths)
    return SweepResult(
        x_label="path length l",
        x_values=tuple(float(length) for length in lengths),
        series=(SweepSeries(label="F(l)", values=values),),
    )


def uniform_width_sweep(
    model: SystemModel,
    lower_bounds: Sequence[int],
    widths: Sequence[int],
    backend: str = "exact",
    n_trials: int = 10_000,
    rng: RandomSource = None,
    backend_options: dict | None = None,
    precision: float | None = None,
    service=None,
) -> SweepResult:
    """Anonymity degree of ``U(a, a + w)`` for each lower bound ``a`` and width ``w``.

    This is the parameterisation of Figure 4: each lower bound produces one
    curve over the shared width axis.  Widths that would exceed the longest
    feasible simple path are reported as ``nan`` so curves remain aligned.
    """
    degree = _degree_evaluator(
        model, backend, n_trials, rng, backend_options, precision, service
    )
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
    model: SystemModel,
    lower_bounds: Sequence[int],
    means: Sequence[int],
    include_fixed: bool = True,
    backend: str = "exact",
    n_trials: int = 10_000,
    rng: RandomSource = None,
    backend_options: dict | None = None,
    precision: float | None = None,
    service=None,
) -> SweepResult:
    """Anonymity degree at equal expected length for fixed vs uniform strategies.

    This is Figure 5's parameterisation: the x axis is the expected path
    length ``L``; the curves are the fixed strategy ``F(L)`` and the uniform
    strategies ``U(a, 2L - a)`` (which have mean ``L``) for each requested
    lower bound ``a``.  Combinations where the implied upper bound is
    infeasible or below the lower bound are reported as ``nan``.
    """
    degree = _degree_evaluator(
        model, backend, n_trials, rng, backend_options, precision, service
    )
    means = tuple(int(mean) for mean in means)
    series = []
    if include_fixed:
        fixed_values = []
        for mean in means:
            if mean > model.max_simple_path_length:
                fixed_values.append(float("nan"))
            else:
                fixed_values.append(degree(FixedLength(mean)))
        series.append(SweepSeries(label="F(L)", values=tuple(fixed_values)))
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


def adversary_model_sweep(
    n_nodes: int,
    distribution: PathLengthDistribution,
    lengths_or_models: Sequence[AdversaryModel] | None = None,
    backend: str = "exact",
    n_trials: int = 10_000,
    rng: RandomSource = None,
    backend_options: dict | None = None,
    precision: float | None = None,
    service=None,
) -> dict[str, float]:
    """Anonymity degree of one distribution under each adversary model."""
    models = lengths_or_models or list(AdversaryModel)
    # One shared generator so each adversary draws an independent child stream
    # (re-seeding per adversary would correlate their Monte-Carlo noise).
    generator = None if backend == "exact" else ensure_rng(rng)
    results = {}
    for adversary in models:
        system = SystemModel(n_nodes=n_nodes, n_compromised=1, adversary=adversary)
        results[adversary.value] = _degree_evaluator(
            system, backend, n_trials, generator, backend_options, precision, service
        )(distribution)
    return results
