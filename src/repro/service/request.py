"""Canonical, content-addressed estimation requests.

The estimation service never computes the same anonymity degree twice; the
mechanism is the :class:`EstimateRequest` — a frozen, fully-serialisable
description of one estimation job whose SHA-256 **content digest** is the key
of the result cache.  Two requests that describe the same job must produce
the same digest, so every field is canonicalised at construction time:

* the distribution is a :class:`DistributionSpec` — a *family name* plus a
  parameter mapping — rather than a live object, so ``U(3, 8)`` built by hand
  and ``DistributionSpec.from_distribution(UniformLength(3, 8))`` digest
  identically regardless of parameter order;
* an explicit compromised set equal to the model's canonical one
  (``{0, .., C-1}``) is normalised away to plain ``n_compromised``;
* backend options are sorted by key; numeric parameters are coerced to plain
  ``int`` / ``float`` (NumPy scalars included) before serialisation.

The digest covers everything the *result* depends on — model, distribution,
backend, seed policy ``(seed, block_size)``, precision target, trial ceiling
— and nothing it does not (no wall-clock limits, no worker counts; those only
change how fast the same bits are produced).  See ``docs/service.md`` for the
full determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import Topology
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
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = ["DistributionSpec", "EstimateRequest", "SPEC_FAMILIES"]

#: Schema version baked into every canonical form.  Bump it whenever the
#: canonical serialisation changes incompatibly: old cache entries then stop
#: matching by digest instead of being misread.  Version 2 added the
#: ``path_model`` field (cycle-allowed requests); version 3 added the
#: ``topology`` field.  Clique requests (``topology=None`` after
#: normalisation) still emit the exact version-2 form — no ``topology`` key —
#: so every pre-topology cache entry keeps matching by digest.
CANONICAL_VERSION = 3

#: Backend options that only change *how fast* the bits are produced, never
#: which bits: kept on the request for execution, excluded from the digest.
_EXECUTION_ONLY_OPTIONS = frozenset({"workers"})

#: family name -> (constructor, required params, optional params).
SPEC_FAMILIES: dict[str, tuple] = {
    "fixed": (FixedLength, ("length",), ()),
    "uniform": (UniformLength, ("low", "high"), ()),
    "geometric": (GeometricLength, ("p_forward",), ("minimum", "max_length")),
    "two_point": (TwoPointLength, ("short", "long", "p_short"), ()),
    "poisson": (PoissonLength, ("rate",), ("minimum", "max_length")),
    "binomial": (BinomialLength, ("trials", "success"), ("minimum",)),
    "zipf": (ZipfLength, ("exponent", "minimum", "max_length"), ()),
    "categorical": (CategoricalLength, ("pmf",), ()),
}


def _plain_number(value: object) -> int | float:
    """Coerce a numeric parameter to a canonical plain ``int`` or ``float``.

    Booleans and NumPy scalars are rejected or unwrapped so that the JSON
    canonical form never depends on the caller's numeric types.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"numeric parameter expected, got {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(f"parameters must be finite, got {value!r}")
        return float(value)
    # NumPy integer / floating scalars expose __index__ / __float__.
    try:
        return int(value.__index__())
    except (AttributeError, TypeError):
        pass
    try:
        return _plain_number(float(value))
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"parameter {value!r} is not a number"
        ) from None


def _canonical_params(family: str, params: Mapping) -> tuple[tuple[str, object], ...]:
    """Validate and canonicalise one family's parameter mapping."""
    try:
        _, required, optional = SPEC_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(SPEC_FAMILIES))
        raise ConfigurationError(
            f"unknown distribution family {family!r}; known families: {known}"
        ) from None
    allowed = set(required) | set(optional)
    unknown = set(params) - allowed
    if unknown:
        raise ConfigurationError(
            f"family {family!r} does not take parameters {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    missing = set(required) - set(params)
    if missing:
        raise ConfigurationError(
            f"family {family!r} requires parameters {sorted(missing)}"
        )
    canonical = []
    for key in sorted(params):
        value = params[key]
        if value is None:
            continue  # an absent optional parameter
        if key == "pmf":
            if not isinstance(value, Mapping) or not value:
                raise ConfigurationError(
                    "the categorical 'pmf' parameter must be a non-empty "
                    "mapping of length -> probability"
                )
            value = tuple(
                (int(length), _plain_number(prob))
                for length, prob in sorted(
                    (int(k), v) for k, v in value.items()
                )
            )
        else:
            value = _plain_number(value)
        canonical.append((key, value))
    return tuple(canonical)


@dataclass(frozen=True)
class DistributionSpec:
    """A path-length distribution as pure data: family name plus parameters.

    The spec is the hashable stand-in for a live
    :class:`~repro.distributions.base.PathLengthDistribution` inside an
    :class:`EstimateRequest`; :meth:`build` reconstructs the distribution and
    :meth:`from_distribution` extracts a spec from any supported family.
    Parameters are canonicalised (sorted, plain numbers, absent optionals
    dropped) at construction, so insertion order never reaches the digest.
    """

    family: str
    params: tuple[tuple[str, object], ...] = field(default=())

    def __init__(self, family: str, params: Mapping | None = None) -> None:
        family = str(family).lower()
        object.__setattr__(self, "family", family)
        object.__setattr__(
            self, "params", _canonical_params(family, dict(params or {}))
        )

    def as_dict(self) -> dict:
        """Parameters as a plain dict (canonical order)."""
        return {
            key: dict(value) if key == "pmf" else value
            for key, value in self.params
        }

    def build(self) -> PathLengthDistribution:
        """Instantiate the live distribution this spec describes."""
        constructor = SPEC_FAMILIES[self.family][0]
        params = self.as_dict()
        if self.family == "categorical":
            return constructor(params["pmf"])
        return constructor(**params)

    @classmethod
    def from_distribution(cls, distribution: PathLengthDistribution) -> "DistributionSpec":
        """Extract the canonical spec of a live distribution.

        Every parametric family of :mod:`repro.distributions` is recognised
        directly; anything else (including :class:`CategoricalLength` and the
        truncated distributions it backs) falls back to an explicit
        categorical pmf, so *any* distribution is speccable — at the cost of
        a digest that identifies the pmf rather than the generating family.
        """
        if isinstance(distribution, FixedLength):
            return cls("fixed", {"length": distribution.length})
        if isinstance(distribution, UniformLength):
            return cls(
                "uniform", {"low": distribution.low, "high": distribution.high}
            )
        if isinstance(distribution, GeometricLength):
            return cls(
                "geometric",
                {
                    "p_forward": distribution.p_forward,
                    "minimum": distribution.minimum,
                    "max_length": distribution._max_length,
                },
            )
        if isinstance(distribution, TwoPointLength):
            return cls(
                "two_point",
                {
                    "short": distribution.short,
                    "long": distribution.long,
                    "p_short": distribution.p_short,
                },
            )
        if isinstance(distribution, PoissonLength):
            return cls(
                "poisson",
                {
                    "rate": distribution.rate,
                    "minimum": distribution.minimum,
                    "max_length": distribution._max_length,
                },
            )
        if isinstance(distribution, (BinomialLength, ZipfLength)):
            # These families keep their parameters private; the pmf fallback
            # below is exact and keeps the spec surface small.
            pass
        if isinstance(distribution, PathLengthDistribution):
            return cls("categorical", {"pmf": distribution.as_dict()})
        raise ConfigurationError(
            f"cannot build a DistributionSpec from {distribution!r}"
        )


def _canonical_options(options: Mapping | None) -> tuple[tuple[str, object], ...]:
    """Sort and type-check backend options (JSON scalars only)."""
    canonical = []
    for key in sorted(options or {}):
        value = options[key]
        if value is None:
            continue
        if isinstance(value, bool):
            pass
        elif isinstance(value, (int, float)):
            value = _plain_number(value)
        elif not isinstance(value, str):
            raise ConfigurationError(
                f"backend option {key!r} must be a JSON scalar "
                f"(bool/int/float/str), got {value!r}"
            )
        canonical.append((str(key), value))
    return tuple(canonical)


@dataclass(frozen=True)
class EstimateRequest:
    """One content-addressed estimation job for the service.

    Fields
    ------
    n_nodes, n_compromised, compromised, adversary, receiver_compromised:
        The system model.  ``compromised`` optionally names the compromised
        identities explicitly; the canonical set ``{0, .., C-1}`` is
        normalised to ``None`` (they are the same executed configuration,
        and the anonymity degree is invariant under node relabelling).
    path_model:
        ``"simple"`` (the default) or ``"cycle_allowed"`` — whether the
        strategy builds simple paths or Crowds-style walks.  Cycle requests
        run on the vectorized cycle engine (any ``n_compromised``) and
        cache exactly like any other request.
    topology:
        A :meth:`~repro.core.topology.Topology.from_spec` string (``"ring"``,
        ``"grid:2x3"``, ``"two-zone:3:3:1"``, ``"adj:<hex>"``, ...) routing
        the request over a restricted graph; ``None`` or ``"clique"`` is the
        paper's clique.  Clique specs normalise to ``None`` and digest
        byte-identically to pre-topology requests; non-clique requests run on
        the ``topology`` batch engine and carry the canonical spec string in
        a version-3 canonical form.
    distribution:
        The :class:`DistributionSpec` of the path-length strategy (a live
        ``PathLengthDistribution`` is accepted and converted).
    backend, backend_options:
        The estimator backend (must support block accumulation — ``batch``
        or ``sharded``; ``exact`` short-circuits) and its constructor
        options.
    precision:
        Target 95% confidence-interval **half-width** in bits; the adaptive
        scheduler stops as soon as the estimate is at least this precise.
        ``None`` disables adaptive stopping (the full ``max_trials`` budget
        runs).
    block_size, seed, max_trials:
        The seed policy.  Results are bit-deterministic per
        ``(seed, block_size)``: trials run in blocks of ``block_size``, each
        block on a sub-seed drawn from the parent seed in round order, until
        the precision target or the ``max_trials`` ceiling is reached.
    """

    n_nodes: int
    distribution: DistributionSpec
    n_compromised: int = 1
    compromised: tuple[int, ...] | None = None
    adversary: str = AdversaryModel.FULL_BAYES.value
    receiver_compromised: bool = True
    path_model: str = PathModel.SIMPLE.value
    topology: str | None = None
    backend: str = "batch"
    backend_options: tuple[tuple[str, object], ...] = ()
    precision: float | None = 0.01
    block_size: int = 10_000
    seed: int = 0
    max_trials: int = 1_000_000

    def __post_init__(self) -> None:
        if isinstance(self.distribution, PathLengthDistribution):
            object.__setattr__(
                self,
                "distribution",
                DistributionSpec.from_distribution(self.distribution),
            )
        if not isinstance(self.distribution, DistributionSpec):
            raise ConfigurationError(
                "distribution must be a DistributionSpec or a "
                f"PathLengthDistribution, got {self.distribution!r}"
            )
        object.__setattr__(self, "n_nodes", check_positive_int(self.n_nodes, "n_nodes"))
        object.__setattr__(
            self, "n_compromised", check_non_negative_int(self.n_compromised, "n_compromised")
        )
        object.__setattr__(self, "block_size", check_positive_int(self.block_size, "block_size"))
        object.__setattr__(self, "seed", check_non_negative_int(self.seed, "seed"))
        object.__setattr__(self, "max_trials", check_positive_int(self.max_trials, "max_trials"))
        object.__setattr__(self, "adversary", AdversaryModel(self.adversary).value)
        object.__setattr__(self, "path_model", PathModel(self.path_model).value)
        if self.topology is not None:
            parsed = Topology.from_spec(str(self.topology), self.n_nodes)
            # A clique spec is the same executed configuration as no topology
            # at all; normalising keeps its digest byte-identical to the
            # pre-topology (version-2) canonical form.
            object.__setattr__(
                self, "topology", None if parsed.is_clique else parsed.spec
            )
        object.__setattr__(self, "backend", str(self.backend))
        object.__setattr__(
            self, "backend_options", _canonical_options(dict(self.backend_options))
        )
        if self.compromised is not None:
            compromised = tuple(sorted({int(node) for node in self.compromised}))
            declared = self.n_compromised
            if declared not in (1, len(compromised)):
                raise ConfigurationError(
                    f"n_compromised={declared} conflicts with an explicit "
                    f"compromised set of {len(compromised)} nodes"
                )
            object.__setattr__(self, "n_compromised", len(compromised))
            if compromised == tuple(range(len(compromised))):
                compromised = None  # the model's canonical set
            object.__setattr__(self, "compromised", compromised)
        if self.precision is not None:
            precision = float(self.precision)
            if precision <= 0.0:
                raise ConfigurationError(
                    f"precision must be > 0 (a CI half-width in bits), got {precision}"
                )
            object.__setattr__(self, "precision", precision)
        # Build the model now: its validation (N >= 2, C <= N, ...) applies.
        model = self.model()
        if self.compromised is not None and any(
            not 0 <= node < model.n_nodes for node in self.compromised
        ):
            raise ConfigurationError(
                "explicit compromised identities must lie in [0, N)"
            )

    # ------------------------------------------------------------------ #
    # Live objects                                                        #
    # ------------------------------------------------------------------ #

    def model(self) -> SystemModel:
        """The :class:`SystemModel` this request describes."""
        return SystemModel(
            n_nodes=self.n_nodes,
            n_compromised=self.n_compromised,
            path_model=PathModel(self.path_model),
            adversary=AdversaryModel(self.adversary),
            receiver_compromised=self.receiver_compromised,
            topology=(
                None
                if self.topology is None
                else Topology.from_spec(self.topology, self.n_nodes)
            ),
        )

    def strategy(self) -> PathSelectionStrategy:
        """The strategy of the requested distribution under the requested path model."""
        distribution = self.distribution.build()
        return PathSelectionStrategy(
            name=distribution.name,
            distribution=distribution,
            path_model=PathModel(self.path_model),
        )

    # ------------------------------------------------------------------ #
    # Canonical form and digest                                           #
    # ------------------------------------------------------------------ #

    def canonical_dict(self) -> dict:
        """The canonical serialisable form; the digest hashes exactly this.

        Clique requests (``topology is None``) emit the exact pre-topology
        version-2 form — no ``topology`` key, ``"version": 2`` — so their
        digests, and every cache entry written before topologies existed,
        are unchanged.  Only non-clique requests carry the version-3 form.
        """
        data = {
            "version": 2 if self.topology is None else CANONICAL_VERSION,
            "n_nodes": self.n_nodes,
            "n_compromised": self.n_compromised,
            "compromised": (
                None if self.compromised is None else list(self.compromised)
            ),
            "adversary": self.adversary,
            "receiver_compromised": self.receiver_compromised,
            "path_model": self.path_model,
            "distribution": {
                "family": self.distribution.family,
                "params": {
                    key: (
                        [[length, prob] for length, prob in value]
                        if key == "pmf"
                        else value
                    )
                    for key, value in self.distribution.params
                },
            },
            "backend": self.backend,
            # "workers" sizes a pool without touching the result bits (the
            # sharded determinism contract); it stays on the request for
            # execution but out of the canonical form, so requests differing
            # only in parallelism share one cache entry.
            "backend_options": {
                key: value
                for key, value in self.backend_options
                if key not in _EXECUTION_ONLY_OPTIONS
            },
            "precision": self.precision,
            "block_size": self.block_size,
            "seed": self.seed,
            "max_trials": self.max_trials,
        }
        if self.topology is not None:
            data["topology"] = self.topology
        return data

    def canonical_json(self) -> str:
        """Deterministic JSON encoding of :meth:`canonical_dict`."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 content digest (hex) — the cache key of this request.

        Hashed once per instance and kept on it: the request is frozen and
        its fields hold only immutable values, so its canonical form cannot
        change, and one cache miss asks for the digest three times.
        """
        digest: str | None = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    @classmethod
    def from_canonical_dict(cls, data: Mapping) -> "EstimateRequest":
        """Rebuild a request from its canonical form (cache entries)."""
        spec_data = data["distribution"]
        params = dict(spec_data["params"])
        if "pmf" in params:
            params["pmf"] = {int(length): prob for length, prob in params["pmf"]}
        known = {entry.name for entry in fields(cls)}
        return cls(
            distribution=DistributionSpec(spec_data["family"], params),
            **{
                key: (tuple(value) if key == "compromised" and value is not None else value)
                for key, value in data.items()
                if key in known and key != "distribution"
            },
        )

    def describe(self) -> str:
        """One-line human-readable summary (CLI and logs)."""
        precision = (
            "fixed budget" if self.precision is None else f"±{self.precision:g} bits"
        )
        topology = "" if self.topology is None else f" {self.topology}"
        return (
            f"{self.distribution.family}{dict(self.distribution.params)} on "
            f"N={self.n_nodes}{topology}, C={self.n_compromised} via {self.backend} "
            f"({precision}, seed={self.seed}, block={self.block_size})"
        )
