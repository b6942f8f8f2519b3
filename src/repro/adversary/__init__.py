"""Adversary substrate: observations, collection agents, and sender inference."""

from repro.adversary.attacks import PredecessorAttack
from repro.adversary.collector import (
    AdversaryCoordinator,
    AgentRecord,
    CompromisedNodeAgent,
    ReceiverAgent,
)
from repro.adversary.inference import BayesianPathInference, SenderPosterior
from repro.adversary.observation import (
    RECEIVER,
    HopReport,
    Observation,
    ReceiverReport,
    observation_from_path,
)

__all__ = [
    "RECEIVER",
    "HopReport",
    "ReceiverReport",
    "Observation",
    "observation_from_path",
    "AdversaryCoordinator",
    "AgentRecord",
    "CompromisedNodeAgent",
    "ReceiverAgent",
    "BayesianPathInference",
    "SenderPosterior",
    "PredecessorAttack",
]
