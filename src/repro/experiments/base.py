"""Shared plumbing for the per-figure experiment modules.

Each experiment module regenerates the data behind one figure of the paper
(or one extension study) and returns an :class:`ExperimentData` object: the
sweep itself, the paper's qualitative claims about it expressed as named
boolean checks, and a handful of headline numbers.  Benchmarks print the data
and assert the checks; EXPERIMENTS.md records the headline numbers and the
check outcomes of every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import render_key_points, render_sweep
from repro.analysis.sweep import SweepResult

__all__ = ["ExperimentData", "PAPER_N_NODES", "PAPER_N_COMPROMISED"]

#: The system size used throughout the paper's numerical section (Figures 3-6).
PAPER_N_NODES = 100
#: The number of compromised nodes used throughout the paper's numerical section.
PAPER_N_COMPROMISED = 1


@dataclass(frozen=True)
class ExperimentData:
    """Result bundle for one reproduced figure or extension study."""

    #: Experiment identifier, e.g. ``"fig3a"``.
    experiment_id: str
    #: Human-readable title, e.g. ``"Figure 3(a): anonymity degree vs path length"``.
    title: str
    #: The regenerated data series.
    sweep: SweepResult
    #: Qualitative claims of the paper evaluated on the regenerated data.
    checks: dict[str, bool] = field(default_factory=dict)
    #: Headline numbers worth recording in EXPERIMENTS.md.
    key_points: dict[str, object] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        """True when every recorded qualitative claim holds on our data."""
        return all(self.checks.values())

    def render(self, precision: int = 4) -> str:
        """Full text rendering: data table, key points, and check outcomes."""
        parts = [render_sweep(self.sweep, title=self.title, precision=precision)]
        if self.key_points:
            parts.append(render_key_points(self.key_points, title="Key points"))
        if self.checks:
            check_rows = {name: ("PASS" if ok else "FAIL") for name, ok in self.checks.items()}
            parts.append(render_key_points(check_rows, title="Qualitative checks"))
        return "\n\n".join(parts)
