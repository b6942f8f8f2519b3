"""repro — reproduction of "An Optimal Strategy for Anonymous Communication Protocols".

The package implements the system model, threat model, anonymity-degree metric
(``H*(S)``), closed-form special cases, optimal path-length-distribution
search, protocol simulators, and experiment harnesses of Guan, Fu, Bettati and
Zhao (ICDCS 2002).

Quickstart::

    from repro import SystemModel, AnonymityAnalyzer, FixedLength, UniformLength

    model = SystemModel(n_nodes=100, n_compromised=1)
    analyzer = AnonymityAnalyzer(model)
    print(analyzer.anonymity_degree(FixedLength(5)))
    print(analyzer.anonymity_degree(UniformLength(2, 8)))

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
harnesses that regenerate every figure of the paper.
"""

import logging as _logging

from repro._version import __version__
from repro.batch import (
    BatchMonteCarlo,
    ShardedBackend,
    available_backends,
    estimate_anonymity,
    get_backend,
)
from repro.core import (
    AdversaryModel,
    AnonymityAnalyzer,
    AnonymityResult,
    EventClass,
    EventSummary,
    ExhaustiveAnalyzer,
    PathModel,
    SystemModel,
    anonymity_degree,
    best_fixed_length,
    best_uniform_for_mean,
    enumerate_anonymity_degree,
    fixed_length_degree,
    optimize_distribution,
    two_point_degree,
    uniform_degree,
)
from repro.distributions import (
    BinomialLength,
    CategoricalLength,
    FixedLength,
    GeometricLength,
    PathLengthDistribution,
    PoissonLength,
    TwoPointLength,
    UniformLength,
    ZipfLength,
)
from repro.exceptions import (
    ConfigurationError,
    DistributionError,
    InferenceError,
    ObservationError,
    OptimizationError,
    ProtocolError,
    ReproError,
    SimulationError,
)

# Library logging hygiene: every module under ``repro`` logs through this
# root logger, and a NullHandler keeps the library silent unless the
# application configures handlers (PEP 282, logging-for-libraries).
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [
    "__version__",
    # Core model and metric
    "SystemModel",
    "PathModel",
    "AdversaryModel",
    "AnonymityAnalyzer",
    "AnonymityResult",
    "anonymity_degree",
    "EventClass",
    "EventSummary",
    "ExhaustiveAnalyzer",
    "enumerate_anonymity_degree",
    "fixed_length_degree",
    "two_point_degree",
    "uniform_degree",
    "best_fixed_length",
    "best_uniform_for_mean",
    "optimize_distribution",
    # Distributions
    "PathLengthDistribution",
    "FixedLength",
    "UniformLength",
    "TwoPointLength",
    "GeometricLength",
    "CategoricalLength",
    "PoissonLength",
    "BinomialLength",
    "ZipfLength",
    # Batch estimation backends
    "BatchMonteCarlo",
    "ShardedBackend",
    "available_backends",
    "get_backend",
    "estimate_anonymity",
    # Exceptions
    "ReproError",
    "ConfigurationError",
    "DistributionError",
    "ObservationError",
    "InferenceError",
    "SimulationError",
    "ProtocolError",
    "OptimizationError",
]
