"""Figure 6: the optimized path-length distribution.

For every target expected path length ``L`` the paper compares three
strategies of equal expectation:

* the fixed strategy ``F(L)``,
* the uniform strategy ``U(2, 2L - 2)``,
* the *optimized* distribution: the solution of the Section 5.4 optimization
  problem restricted to distributions with expectation ``L``.

The optimized strategy dominates both alternatives by construction; the
experiment verifies that our optimizer actually achieves that domination and
reports how much head-room remains above the best fixed-length strategy.
"""

from __future__ import annotations

from repro.analysis.sweep import SweepResult, SweepSeries
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.core.optimizer import best_uniform_for_mean, optimize_distribution
from repro.distributions import FixedLength, UniformLength
from repro.experiments.base import PAPER_N_COMPROMISED, PAPER_N_NODES, ExperimentData

__all__ = ["figure6"]


def figure6(
    n_nodes: int = PAPER_N_NODES,
    n_compromised: int = PAPER_N_COMPROMISED,
    means: list[int] | None = None,
    full_simplex: bool = False,
) -> ExperimentData:
    """Reproduce Figure 6: optimized distribution vs ``F(L)`` and ``U(2, 2L-2)``.

    By default the optimization is performed over the uniform family (choose
    the best width for the given mean), matching the paper's restricted
    optimization; pass ``full_simplex=True`` to run the interior-point search over all
    distributions of the given mean (slower, never worse).
    """
    model = SystemModel(n_nodes=n_nodes, n_compromised=n_compromised)
    analyzer = AnonymityAnalyzer(model)
    if means is None:
        means = list(range(2, 50, 3))

    fixed_values = []
    uniform_values = []
    optimized_values = []
    optimized_descriptions: dict[int, str] = {}
    for mean in means:
        fixed_values.append(analyzer.anonymity_degree(FixedLength(mean)))
        high = 2 * mean - 2
        if 2 <= high <= model.max_simple_path_length and high >= 2:
            uniform_values.append(analyzer.anonymity_degree(UniformLength(2, high)))
        else:
            uniform_values.append(float("nan"))

        scan = best_uniform_for_mean(model, mean)
        best = scan.best_degree
        best_description = scan.best_distribution.name
        if full_simplex:
            outcome = optimize_distribution(
                model,
                min_length=0,
                max_length=min(model.max_simple_path_length, 2 * mean),
                mean=float(mean),
            )
            if outcome.degree_bits > best:
                best = outcome.degree_bits
                best_description = outcome.distribution.name
        optimized_values.append(best)
        optimized_descriptions[mean] = best_description

    sweep = SweepResult(
        x_label="expected path length L",
        x_values=tuple(float(mean) for mean in means),
        series=(
            SweepSeries("F(L)", tuple(fixed_values)),
            SweepSeries("U(2, 2L-2)", tuple(uniform_values)),
            SweepSeries("Optimized", tuple(optimized_values)),
        ),
    )

    checks = {
        "the optimized strategy is never worse than F(L)": all(
            opt >= fixed - 1e-9 for opt, fixed in zip(optimized_values, fixed_values)
        ),
        "the optimized strategy is never worse than U(2, 2L-2)": all(
            opt >= uniform - 1e-9
            for opt, uniform in zip(optimized_values, uniform_values)
            if uniform == uniform  # skip NaN entries
        ),
        "optimization strictly helps for at least one expectation": any(
            opt > fixed + 1e-6 for opt, fixed in zip(optimized_values, fixed_values)
        ),
    }
    gains = [opt - fixed for opt, fixed in zip(optimized_values, fixed_values)]
    best_gain_index = max(range(len(gains)), key=gains.__getitem__)
    key_points = {
        "largest gain over F(L) (bits)": round(gains[best_gain_index], 5),
        "expectation with the largest gain": means[best_gain_index],
        "optimized distribution at that expectation": optimized_descriptions[
            means[best_gain_index]
        ],
        "H* of optimized strategy at that expectation": round(
            optimized_values[best_gain_index], 4
        ),
    }
    return ExperimentData(
        experiment_id="fig6",
        title=(
            f"Figure 6: optimal path-length distribution vs F(L) and U(2, 2L-2) "
            f"(N={n_nodes}, C={n_compromised})"
        ),
        sweep=sweep,
        checks=checks,
        key_points=key_points,
    )
