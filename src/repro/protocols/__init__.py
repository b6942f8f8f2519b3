"""Protocol implementations of the systems surveyed in Section 2 of the paper."""

from repro.protocols.anonymizer import AnonymizerProtocol
from repro.protocols.base import DELIVER, ReroutingProtocol, SourceRoutedProtocol
from repro.protocols.crowds import CrowdsProtocol
from repro.protocols.freedom import FreedomProtocol
from repro.protocols.hordes import HordesProtocol
from repro.protocols.onion_routing import OnionRoutingI, OnionRoutingII
from repro.protocols.pipenet import PipeNetProtocol
from repro.protocols.remailer import RemailerChainProtocol

__all__ = [
    "DELIVER",
    "ReroutingProtocol",
    "SourceRoutedProtocol",
    "AnonymizerProtocol",
    "CrowdsProtocol",
    "HordesProtocol",
    "FreedomProtocol",
    "PipeNetProtocol",
    "OnionRoutingI",
    "OnionRoutingII",
    "RemailerChainProtocol",
]
