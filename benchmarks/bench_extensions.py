"""Benchmark harness for the extension studies.

These go beyond the paper's figures using the same machinery: more compromised
nodes, weaker/stronger adversaries, the deployed systems of Section 2, a full
discrete-event validation of the analytics, and the long-term predecessor
attack the paper cites as follow-up work.
"""

from __future__ import annotations

from repro.experiments.extensions import (
    adversary_ablation,
    compromised_sweep,
    predecessor_attack_rounds,
    protocol_comparison,
    simulation_validation,
)


def test_compromised_sweep(benchmark, run_and_report):
    """Anonymity degree versus the number of compromised nodes (exact + Monte-Carlo)."""
    run_and_report(benchmark, compromised_sweep)


def test_adversary_ablation(benchmark, run_and_report):
    """Full-Bayes vs position-aware vs predecessor-only adversaries."""
    run_and_report(benchmark, adversary_ablation)


def test_protocol_comparison(benchmark, run_and_report):
    """Ranking of the deployed systems surveyed in Section 2 of the paper."""
    data = run_and_report(benchmark, protocol_comparison)
    assert "ranking (best to worst)" in data.key_points


def test_simulation_validation(benchmark, run_and_report):
    """The discrete-event simulator reproduces the closed-form degrees."""
    run_and_report(benchmark, simulation_validation)


def test_predecessor_attack(benchmark, run_and_report):
    """Repeated Crowds paths fall to the predecessor attack (Wright et al.)."""
    run_and_report(benchmark, predecessor_attack_rounds)

