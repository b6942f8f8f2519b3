"""Comparison of complete path-selection strategies.

The paper's punchline is that "several well-known anonymous communication
systems are not using the best path selection strategies".  The helpers here
make that comparison concrete: rank the strategies of deployed systems (and
any custom strategies) by the anonymity degree they achieve in a given system
model, alongside the overhead they pay (expected path length).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.anonymity import AnonymityAnalyzer
from repro.core.model import SystemModel
from repro.metrics import normalized_degree
from repro.routing.strategies import PathSelectionStrategy, deployed_system_strategies

__all__ = ["StrategyComparison", "compare_strategies", "compare_deployed_systems"]


@dataclass(frozen=True)
class StrategyComparison:
    """One row of a strategy-comparison table."""

    name: str
    distribution: str
    expected_length: float
    degree_bits: float
    normalized: float

    def as_row(self) -> tuple:
        """Row tuple in the column order used by the report renderer."""
        return (
            self.name,
            self.distribution,
            self.expected_length,
            self.degree_bits,
            self.normalized,
        )


def compare_strategies(
    model: SystemModel, strategies: Mapping[str, PathSelectionStrategy]
) -> list[StrategyComparison]:
    """Evaluate every strategy under ``model`` and sort by decreasing anonymity."""
    analyzer = AnonymityAnalyzer(model)
    rows = []
    for strategy in strategies.values():
        distribution = strategy.effective_distribution(model.n_nodes)
        degree = analyzer.anonymity_degree(distribution)
        rows.append(
            StrategyComparison(
                name=strategy.name,
                distribution=distribution.name,
                expected_length=distribution.mean(),
                degree_bits=degree,
                normalized=normalized_degree(degree, model.n_nodes),
            )
        )
    return sorted(rows, key=lambda row: -row.degree_bits)


def compare_deployed_systems(model: SystemModel) -> list[StrategyComparison]:
    """Rank the deployed systems surveyed in Section 2 of the paper.

    Cycle-path variants are excluded because the closed-form engine covers
    simple paths; the geometric length distributions of Crowds and Onion
    Routing II are evaluated on simple paths, which the paper itself does when
    comparing strategies purely by their length distributions.  A system
    whose every length exceeds the longest simple path ``N - 1`` (Onion
    Routing I's ``F(5)`` at ``N <= 5``) has no feasible strategy at ``N`` and
    is left out of the ranking.
    """
    strategies = deployed_system_strategies(include_cycle_variants=False)
    feasible = {
        key: strategy
        for key, strategy in strategies.items()
        if strategy.distribution.min_length <= model.max_simple_path_length
    }
    return compare_strategies(model, feasible)
