"""Network substrate of the simulator: nodes, messages, clocks, and transport.

Transport routes over :class:`repro.core.topology.Topology`, the graph the
analytic engines price.
"""

from repro.network.clock import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    SimulationClock,
    UniformLatency,
)
from repro.network.message import DeliveryRecord, Message
from repro.network.node import Node, NodeRegistry
from repro.network.transport import Transport, TransmissionLog

__all__ = [
    "Node",
    "NodeRegistry",
    "Message",
    "DeliveryRecord",
    "SimulationClock",
    "LatencyModel",
    "ConstantLatency",
    "ExponentialLatency",
    "UniformLatency",
    "Transport",
    "TransmissionLog",
]
