"""Registry mapping experiment identifiers to their generator functions.

The registry is the single source of truth for the CLI (``repro-anon list``
and ``repro-anon figure <id>``).  The test suite runs every entry's
qualitative checks and requires every experiment id that ``README.md`` and
``docs/`` cite to be registered here.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.experiments.base import ExperimentData
from repro.experiments.extensions import (
    adversary_ablation,
    compromised_sweep,
    predecessor_attack_rounds,
    protocol_comparison,
    simulation_validation,
)
from repro.experiments.fig3 import figure3a, figure3b
from repro.experiments.fig4 import figure4a, figure4b, figure4c, figure4d
from repro.experiments.fig5 import figure5a, figure5b, figure5c, figure5d
from repro.experiments.fig6 import figure6
from repro.experiments.theorems import theorem1, theorem2, theorem3

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments"]

#: Every reproducible experiment: paper figures, theorems, and extensions.
EXPERIMENTS: dict[str, Callable[[], ExperimentData]] = {
    "fig3a": figure3a,
    "fig3b": figure3b,
    "fig4a": figure4a,
    "fig4b": figure4b,
    "fig4c": figure4c,
    "fig4d": figure4d,
    "fig5a": figure5a,
    "fig5b": figure5b,
    "fig5c": figure5c,
    "fig5d": figure5d,
    "fig6": figure6,
    "thm1": theorem1,
    "thm2": theorem2,
    "thm3": theorem3,
    "ext-c": compromised_sweep,
    "ext-adv": adversary_ablation,
    "ext-proto": protocol_comparison,
    "ext-sim": simulation_validation,
    "ext-pred": predecessor_attack_rounds,
}


def list_experiments() -> list[str]:
    """Identifiers of every registered experiment, in canonical order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str) -> ExperimentData:
    """Run one registered experiment by identifier."""
    try:
        generator = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from exc
    return generator()
