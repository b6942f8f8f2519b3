"""Golden batch accumulators, one per engine kernel.

Each row pins ``(length_sum, class count, mean entropy as float.hex,
accumulator_digest)`` for a fixed ``(seed, chunk size)`` run, so any change
to an engine's draw order, decode, classification, or pricing shows up as a
bit difference.  The five-class and topology rows were recorded before the
batch engines were cut down to one kernel each; the arrangement, cycle and
sharded rows were re-recorded when those engines began to price each
canonical observation class once, from its key alone.  The 150 000-trial
rows run three chunks of the engines' common chunk size; they were recorded
when the simple-path engines still ran a budget as one block unless told
otherwise, with 65 536-trial chunks set explicitly for those two.  The
``C = 2`` cycle rows for an honest receiver and for the position-aware and
predecessor-only adversaries were recorded before the cycle kernel began to
decode and classify only the hops each trial walks.  The cycle-path ring
and the position-aware, honest-receiver grid rows were recorded before the
topology law began to enumerate each (sender, length) path set once and the
topology engine began to read its class ids from the class table.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.batch import BatchMonteCarlo, ShardedBackend
from repro.batch import engine as engine_module
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import Topology
from repro.distributions import GeometricLength, UniformLength
from repro.routing.strategies import PathSelectionStrategy

TRIALS = 20_000
SEED = 13


def accumulator_digest(accumulator) -> str:
    """Short sha256 over every class's key, count, entropy bits, and flag."""
    rows = sorted(
        (repr(key), count, float(entropy).hex(), bool(identified))
        for key, (count, entropy, identified) in accumulator.classes.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def fingerprint(accumulator) -> tuple[int, int, str, str]:
    mean, _ = accumulator.grouped_moments()
    return (
        accumulator.length_sum,
        len(accumulator.classes),
        mean.hex(),
        accumulator_digest(accumulator),
    )


def crowds() -> PathSelectionStrategy:
    return PathSelectionStrategy(
        "Crowds (cycle paths)",
        GeometricLength(p_forward=0.75, minimum=1),
        path_model=PathModel.CYCLE_ALLOWED,
    )


def uniform(low: int, high: int) -> PathSelectionStrategy:
    distribution = UniformLength(low, high)
    return PathSelectionStrategy(distribution.name, distribution)


def ring_or_grid(spec: str) -> tuple[SystemModel, PathSelectionStrategy]:
    topology = Topology.from_spec(spec, 20)
    return SystemModel(n_nodes=20, n_compromised=1, topology=topology), uniform(1, 6)


def cycle_model(n_compromised: int, **settings) -> SystemModel:
    return SystemModel(
        n_nodes=100,
        n_compromised=n_compromised,
        path_model=PathModel.CYCLE_ALLOWED,
        **settings,
    )


#: Configuration name -> (engine it must select, model and strategy builder).
CONFIGURATIONS = {
    "five-class": (
        "five-class", lambda: (SystemModel(n_nodes=100, n_compromised=1), uniform(1, 20))
    ),
    "arrangement": (
        "arrangement", lambda: (SystemModel(n_nodes=100, n_compromised=2), uniform(2, 8))
    ),
    "cycle": ("cycle", lambda: (cycle_model(1), crowds())),
    "cycle-multi": ("cycle", lambda: (cycle_model(2), crowds())),
    "cycle-honest": (
        "cycle", lambda: (cycle_model(2, receiver_compromised=False), crowds())
    ),
    "cycle-position-aware": (
        "cycle",
        lambda: (cycle_model(2, adversary=AdversaryModel.POSITION_AWARE), crowds()),
    ),
    "cycle-predecessor-only": (
        "cycle",
        lambda: (cycle_model(2, adversary=AdversaryModel.PREDECESSOR_ONLY), crowds()),
    ),
    "topology-ring": ("topology", lambda: ring_or_grid("ring")),
    "topology-grid": ("topology", lambda: ring_or_grid("grid:4x5")),
    "topology-ring-cycle": (
        "topology",
        lambda: (
            SystemModel(
                n_nodes=20,
                n_compromised=2,
                topology=Topology.ring(20),
                path_model=PathModel.CYCLE_ALLOWED,
            ),
            PathSelectionStrategy(
                "U(1,6) walks",
                UniformLength(1, 6),
                path_model=PathModel.CYCLE_ALLOWED,
            ),
        ),
    ),
    "topology-grid-position-aware": (
        "topology",
        lambda: (
            SystemModel(
                n_nodes=20,
                n_compromised=2,
                topology=Topology.from_spec("grid:4x5", 20),
                adversary=AdversaryModel.POSITION_AWARE,
                receiver_compromised=False,
            ),
            uniform(1, 6),
        ),
    ),
}

#: Recorded as (length sum, classes, mean entropy as float.hex, digest), per
#: configuration and chunk size: ``None`` runs the engines' own chunk size
#: (one chunk at this budget), an integer patches it for the run.
GOLDEN = {
    ("five-class", None): (
        210119, 5, "0x1.a134f44548528p+2", "0a12b0af1814388d"
    ),
    ("five-class", 4_097): (
        210239, 5, "0x1.a1a9c974e6b43p+2", "0d1c6baac4047b8e"
    ),
    ("arrangement", None): (
        100053, 14, "0x1.98f58e675fec1p+2", "68fc4ddcfe8565e6"
    ),
    ("arrangement", 4_097): (
        100438, 14, "0x1.98f6a3fe54834p+2", "82df60d5cdab491f"
    ),
    ("cycle", None): (
        80072, 12, "0x1.a10f8961c1396p+2", "d8e1db16f0451096"
    ),
    ("cycle", 4_097): (
        80068, 11, "0x1.a132634e2bbd7p+2", "fdb6d888fbcc6b64"
    ),
    ("cycle-multi", None): (
        80072, 19, "0x1.99daec6727012p+2", "26da9f60f7a002ba"
    ),
    ("cycle-multi", 4_097): (
        80068, 15, "0x1.99d8f86a85359p+2", "04d69a3eaddc912c"
    ),
    ("cycle-honest", None): (
        80072, 13, "0x1.99e3509e31fd7p+2", "d7e0f3822befe3d7"
    ),
    ("cycle-honest", 4_097): (
        80068, 12, "0x1.99e158d3f1895p+2", "da28a078f3aa25a9"
    ),
    ("cycle-position-aware", None): (
        80072, 24, "0x1.9589047f4b900p+2", "c13ec27669c49049"
    ),
    ("cycle-position-aware", 4_097): (
        80068, 25, "0x1.965c50e32206dp+2", "3a5fcb21d51cb823"
    ),
    ("cycle-predecessor-only", None): (
        80072, 3, "0x1.99e3509e32050p+2", "949c7ae24cae7d80"
    ),
    ("cycle-predecessor-only", 4_097): (
        80068, 3, "0x1.99e158d3f176ep+2", "b9551879589ffc48"
    ),
    ("topology-ring", None): (
        70090, 32, "0x1.770b09642b375p+1", "53d8b6ecc764cfca"
    ),
    ("topology-ring", 4_097): (
        70091, 32, "0x1.7636b3b8af3fcp+1", "b34c2b2626334c8f"
    ),
    ("topology-grid", None): (
        70090, 51, "0x1.e915a3d8c6635p+1", "d878b6bf2217ed8d"
    ),
    ("topology-grid", 4_097): (
        70091, 50, "0x1.e984bc27c4766p+1", "39a3f42b647d548b"
    ),
    ("topology-ring-cycle", None): (
        70090, 111, "0x1.2fbe38fe01042p+1", "3f25f0e86427dcbc"
    ),
    ("topology-ring-cycle", 4_097): (
        70091, 107, "0x1.2ff241a0a4039p+1", "faaf8c42efe8396b"
    ),
    ("topology-grid-position-aware", None): (
        70090, 65, "0x1.b2bdbfad5a74ap+1", "f0b1d684e66eef54"
    ),
    ("topology-grid-position-aware", 4_097): (
        70091, 66, "0x1.b3a9c011cb2bfp+1", "891ef2fc1ba59686"
    ),
}

#: ``LONG_TRIALS`` trials in three chunks of the engines' own chunk size.
LONG_TRIALS = 150_000
LONG_GOLDEN = {
    "five-class": (1570756, 5, "0x1.a1ccad5fe8bd4p+2", "67de1183d5cc62a7"),
    "arrangement": (749341, 14, "0x1.998c54e80ac19p+2", "bfdfc5d09d73d7f5"),
    "cycle": (599495, 15, "0x1.a19a79d77bd2dp+2", "cb95af3ebaca5221"),
    "cycle-multi": (599495, 32, "0x1.9a3509daa5606p+2", "37b62fa56508df74"),
    "cycle-honest": (599495, 24, "0x1.9a3d7297e4077p+2", "ed40e408004a8b68"),
    "cycle-position-aware": (
        599495, 31, "0x1.96a6f517f6b66p+2", "060858866ea3d098"
    ),
    "cycle-predecessor-only": (
        599495, 3, "0x1.9a3d7297e427ap+2", "99a72afaf95fcf22"
    ),
    "topology-ring": (523898, 32, "0x1.7730770eede90p+1", "96974d22035cb2ae"),
    "topology-grid": (523898, 51, "0x1.ea94ceadf90e7p+1", "2a5578e9292bc72f"),
    "topology-ring-cycle": (
        523898, 112, "0x1.3066b73b00d02p+1", "31f5f460ff74e7f1"
    ),
    "topology-grid-position-aware": (
        523898, 66, "0x1.b48b4e41036c3p+1", "d8eb68679818923c"
    ),
}

#: ``(seed, shards=2)`` on the sharded backend, merged across both shards.
SHARDED_GOLDEN = (100365, 14, "0x1.995bf05cc2133p+2", "241cfca6a9e6d907")


def run_golden(name: str, trials: int):
    engine_name, build = CONFIGURATIONS[name]
    model, strategy = build()
    estimator = BatchMonteCarlo(model, strategy)
    assert estimator.engine.name == engine_name
    return estimator.run_accumulate(trials, rng=SEED)


@pytest.mark.parametrize("config", sorted(GOLDEN, key=repr), ids=repr)
def test_golden_accumulators(config, monkeypatch):
    name, chunk = config
    if chunk is not None:
        monkeypatch.setattr(engine_module, "CHUNK_TRIALS", chunk)
    assert fingerprint(run_golden(name, TRIALS)) == GOLDEN[config]


@pytest.mark.parametrize("name", sorted(LONG_GOLDEN))
def test_golden_accumulators_over_three_chunks(name):
    assert LONG_TRIALS // engine_module.CHUNK_TRIALS == 2
    assert fingerprint(run_golden(name, LONG_TRIALS)) == LONG_GOLDEN[name]


def test_sharded_golden_accumulator():
    _, build = CONFIGURATIONS["arrangement"]
    model, strategy = build()
    with ShardedBackend(workers=1, shards=2) as backend:
        accumulator = backend.accumulate_runner(model, strategy)(TRIALS, rng=SEED)
    assert accumulator.n_trials == TRIALS
    assert fingerprint(accumulator) == SHARDED_GOLDEN
