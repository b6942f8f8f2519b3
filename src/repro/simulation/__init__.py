"""Discrete-event simulation and Monte-Carlo anonymity experiments.

The estimators never import this package: their report types live in
:mod:`repro.core.results`, re-exported here for the simulator's callers.
"""

from repro.core.results import EstimateWithCI, MonteCarloReport, summarize_samples
from repro.simulation.engine import AnonymousCommunicationSystem, SendOutcome
from repro.simulation.experiment import ProtocolMonteCarlo, StrategyMonteCarlo

__all__ = [
    "AnonymousCommunicationSystem",
    "SendOutcome",
    "StrategyMonteCarlo",
    "ProtocolMonteCarlo",
    "MonteCarloReport",
    "EstimateWithCI",
    "summarize_samples",
]
