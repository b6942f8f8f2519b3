"""Analysis helpers: sweeps, strategy comparisons, and text reports."""

from repro.analysis.compare import (
    StrategyComparison,
    compare_deployed_systems,
    compare_strategies,
)
from repro.analysis.overhead import (
    TradeoffPoint,
    anonymity_per_hop,
    evaluate_tradeoff,
    pareto_frontier,
)
from repro.analysis.report import (
    render_comparison,
    render_event_breakdown,
    render_key_points,
    render_sweep,
)
from repro.analysis.sweep import (
    SweepResult,
    SweepSeries,
    fixed_length_sweep,
    uniform_mean_sweep,
    uniform_width_sweep,
)

__all__ = [
    "TradeoffPoint",
    "evaluate_tradeoff",
    "pareto_frontier",
    "anonymity_per_hop",
    "SweepResult",
    "SweepSeries",
    "fixed_length_sweep",
    "uniform_width_sweep",
    "uniform_mean_sweep",
    "StrategyComparison",
    "compare_strategies",
    "compare_deployed_systems",
    "render_sweep",
    "render_comparison",
    "render_event_breakdown",
    "render_key_points",
]
