"""Tests for arbitrary routing topologies (:mod:`repro.core.topology`).

Covers the vertical slice that takes the analysis off the clique: the
`Topology` value object (constructors, validation, spec round-trips), the
shared exact path law (`TopologyPathLaw`), the topology-aware inference and
class table, the `topology` batch engine and its parity with exhaustive
enumeration, the sharding/determinism contracts, service canonicalisation
(clique requests must keep their pre-topology digests), and the CLI surface.

The ground truth throughout is :class:`repro.core.enumeration.ExhaustiveAnalyzer`
evaluated on the same restricted graph — the parity matrix checks the
engine's zero-variance degree against it to ``1e-10`` across every topology,
path model, adversary model, receiver setting, and ``C ∈ {0, 1, 2}``.
"""

from __future__ import annotations

import dataclasses
import itertools
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from repro.adversary.inference import observation_class_key
from repro.adversary.observation import observation_from_path
from repro.batch import (
    BatchMonteCarlo,
    ShardedBackend,
    TopologyEngine,
    select_engine,
)
from repro.cli import main
from repro.core.anonymity import AnonymityAnalyzer
from repro.core.enumeration import ExhaustiveAnalyzer
from repro.core.model import AdversaryModel, PathModel, SystemModel
from repro.core.topology import Topology, TopologyPathLaw
from repro.distributions import UniformLength
from repro.exceptions import ConfigurationError
from repro.experiments.registry import list_experiments
from repro.routing.strategies import PathSelectionStrategy
from repro.service import DistributionSpec, EstimateRequest, EstimationService
from repro.simulation.experiment import StrategyMonteCarlo

#: The test graphs: one sparse cycle, one hub, one lattice, one partitioned
#: pair of zones joined by a single bridge — all on six nodes.
TOPOLOGIES = {
    "ring": Topology.ring(6),
    "star": Topology.star(6),
    "grid": Topology.grid(2, 3),
    "two-zone": Topology.two_zone(3, 3, 1),
}

#: Golden digest of the reference *non-clique* request below.  Non-clique
#: requests carry the bumped canonical version and the topology key; this
#: value pins that serialisation exactly as the clique golden in
#: tests/test_service.py pins the version-2 form.
TOPOLOGY_REFERENCE_DIGEST = (
    "08c0f3594925d2bc08bb3a24905fe2b10cc2df4ca23f10041e858574ad947036"
)


def _strategy(path_model: PathModel) -> PathSelectionStrategy:
    # Lengths 1..3 keep simple paths feasible from every sender on every test
    # graph; cycle walks get one extra hop to exercise revisits.
    distribution = (
        UniformLength(1, 3)
        if path_model is PathModel.SIMPLE
        else UniformLength(1, 4)
    )
    return PathSelectionStrategy("topology walk", distribution, path_model=path_model)


def _model(topology: Topology, path_model: PathModel, **overrides) -> SystemModel:
    settings = dict(n_nodes=6, n_compromised=1, topology=topology, path_model=path_model)
    settings.update(overrides)
    return SystemModel(**settings)


# ---------------------------------------------------------------------- #
# The Topology value object                                               #
# ---------------------------------------------------------------------- #


class TestTopologyObject:
    @pytest.mark.parametrize(
        "topology",
        [
            Topology.clique(6),
            Topology.ring(6),
            Topology.star(6),
            Topology.grid(2, 3),
            Topology.random_regular(6, 3, seed=4),
            Topology.two_zone(3, 3, 2),
        ],
    )
    def test_spec_round_trips(self, topology):
        rebuilt = Topology.from_spec(topology.spec, topology.n_nodes)
        assert rebuilt == topology and rebuilt.spec == topology.spec

    # Adjacency (as the generic adj:<hex> spec) of regular specs the pairing
    # rejection loop realised before switch repair existed; their graphs, and
    # so every digest and cache entry naming them, must not move.
    REALISED_BEFORE_REPAIR = {
        (6, 3, 4): "adj:1f9a",
        (10, 4, 1): "adj:0a5598a1f294",
        (20, 3, 7): "adj:20804600001004400842800208a0000809e1100006009900",
        (30, 6, 3): (
            "adj:704102010c22001a000110018084c03400841300008027118001811000581"
            "084ca00328b040a20a044004a006000ab00122182024b108"
        ),
    }

    @pytest.mark.parametrize("args", sorted(REALISED_BEFORE_REPAIR))
    def test_random_regular_keeps_realised_graphs(self, args):
        topology = Topology.random_regular(*args)
        assert Topology(topology.adjacency).spec == self.REALISED_BEFORE_REPAIR[args]

    def test_regular_6_1_at_n30_realises(self):
        # Failed with "could not realise" before switch repair: a 6-regular
        # pairing on 30 nodes is simple with probability ~1e-4.
        topology = Topology.from_spec("regular:6:1", 30)
        assert topology.spec == "regular:6:1"
        assert all(topology.degree(node) == 6 for node in range(30))
        assert Topology.from_spec("regular:6:1", 30) == topology

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_nodes", [10, 20, 30])
    @pytest.mark.parametrize("degree", [6, 8])
    def test_random_regular_high_degree_realises(self, degree, n_nodes, seed):
        topology = Topology.random_regular(n_nodes, degree, seed)
        assert all(topology.degree(node) == degree for node in range(n_nodes))
        assert Topology.random_regular(n_nodes, degree, seed) == topology

    def test_random_regular_degree_one_still_fails_fast(self):
        # A perfect matching on more than two nodes is never connected.
        with pytest.raises(ConfigurationError, match="could not realise"):
            Topology.random_regular(8, 1)

    def test_adjacency_spec_round_trips_hand_built_matrices(self):
        path = Topology(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
        assert path.spec.startswith("adj:")
        assert Topology.from_spec(path.spec, 3) == path

    def test_clique_is_the_identity_topology(self):
        assert Topology.clique(5).is_clique
        assert not Topology.ring(5).is_clique
        assert SystemModel(n_nodes=5).clique_routing
        assert SystemModel(n_nodes=5, topology=Topology.clique(5)).clique_routing
        assert not SystemModel(n_nodes=5, topology=Topology.ring(5)).clique_routing

    def test_degrees_match_the_named_shapes(self):
        assert all(TOPOLOGIES["ring"].degree(i) == 2 for i in range(6))
        star = TOPOLOGIES["star"]
        assert star.degree(0) == 5 and all(star.degree(i) == 1 for i in range(1, 6))

    def test_disconnected_graph_rejected(self):
        two_islands = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
        with pytest.raises(ConfigurationError, match="connected"):
            Topology(two_islands)

    def test_spec_node_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology.from_spec("grid:2x3", 7)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology spec"):
            Topology.from_spec("torus", 6)

    def test_transition_matrix_rows_are_uniform_over_neighbors(self):
        for row, topology_row in zip(
            TOPOLOGIES["grid"].transition_matrix(), TOPOLOGIES["grid"].adjacency
        ):
            degree = sum(topology_row)
            assert sum(row) == pytest.approx(1.0)
            assert all(
                p == pytest.approx(1.0 / degree) if edge else p == 0.0
                for p, edge in zip(row, topology_row)
            )


# ---------------------------------------------------------------------- #
# Path enumeration against the recursive reference                        #
# ---------------------------------------------------------------------- #


def _adjacent(topology: Topology, node: int) -> list[int]:
    return [other for other, bit in enumerate(topology.adjacency[node]) if bit]


def reference_simple_paths(topology, start, length, max_paths=2_000_000):
    """The recursive DFS that copies its visited set and prefix at every step."""
    if length == 0:
        return ((),)
    paths = []

    def extend(current, used, prefix):
        if len(prefix) == length:
            paths.append(prefix)
            if len(paths) > max_paths:
                raise ConfigurationError(
                    f"more than {max_paths} simple paths of length {length} "
                    f"from node {start} on topology {topology.spec}; reduce the "
                    "system size or path length"
                )
            return
        for node in _adjacent(topology, current):
            if node not in used and node != start:
                extend(node, used | {node}, prefix + (node,))

    extend(start, set(), ())
    return tuple(paths)


def reference_walks(topology, start, length, max_paths=2_000_000):
    """The generator DFS over adjacency rows, one prefix tuple per step."""
    if length == 0:
        yield ()
        return
    count = 0

    def extend(current, prefix):
        nonlocal count
        if len(prefix) == length:
            count += 1
            if count > max_paths:
                raise ConfigurationError(
                    f"more than {max_paths} walks of length {length} from "
                    f"node {start} on topology {topology.spec}; reduce the "
                    "system size or path length"
                )
            yield prefix
            return
        for node in _adjacent(topology, current):
            yield from extend(node, prefix + (node,))

    yield from extend(start, ())


#: Two 20-node graphs beside the six-node test graphs.
LARGER = [Topology.from_spec(spec, 20) for spec in ("grid:4x5", "regular:3:1")]

#: Every test graph with the simple-path and walk lengths to compare at.
ENUMERATION_CASES = [
    pytest.param(topology, range(topology.n_nodes), range(5), id=topology.spec)
    for topology in TOPOLOGIES.values()
] + [pytest.param(topology, range(7), range(7), id=topology.spec) for topology in LARGER]


def _drain(iterator):
    """Items an iterator yields before it raises, and the error message."""
    items = []
    with pytest.raises(ConfigurationError) as error:
        for item in iterator:
            items.append(item)
    return items, str(error.value)


class TestPathEnumeration:
    @pytest.mark.parametrize(
        "topology, path_lengths, walk_lengths", ENUMERATION_CASES
    )
    def test_paths_and_walks_equal_the_reference_in_order(
        self, topology, path_lengths, walk_lengths
    ):
        for start in range(topology.n_nodes):
            for length in path_lengths:
                assert topology.simple_paths(start, length) == (
                    reference_simple_paths(topology, start, length)
                ), (topology.spec, start, length)
            for length in walk_lengths:
                assert tuple(topology.walks(start, length)) == tuple(
                    reference_walks(topology, start, length)
                ), (topology.spec, start, length)

    @pytest.mark.parametrize("topology", LARGER, ids=lambda topology: topology.spec)
    def test_max_paths_raises_at_the_same_count(self, topology):
        exact = len(reference_simple_paths(topology, 0, 4))
        assert len(topology.simple_paths(0, 4, max_paths=exact)) == exact
        for max_paths in (0, 1, exact // 2, exact - 1):
            with pytest.raises(ConfigurationError) as expected:
                reference_simple_paths(topology, 0, 4, max_paths=max_paths)
            with pytest.raises(ConfigurationError) as error:
                topology.simple_paths(0, 4, max_paths=max_paths)
            assert str(error.value) == str(expected.value)
            assert _drain(topology.walks(0, 4, max_paths=max_paths)) == _drain(
                reference_walks(topology, 0, 4, max_paths=max_paths)
            )
        walks = len(tuple(reference_walks(topology, 0, 4)))
        assert len(tuple(topology.walks(0, 4, max_paths=walks))) == walks

    @pytest.mark.parametrize(
        "topology",
        list(TOPOLOGIES.values()) + LARGER,
        ids=lambda topology: topology.spec,
    )
    def test_degree_and_neighbors_match_the_adjacency_rows(self, topology):
        for node, row in enumerate(topology.adjacency):
            assert topology.neighbors(node) == tuple(_adjacent(topology, node))
            assert topology.degree(node) == sum(row)


# ---------------------------------------------------------------------- #
# Exhaustive parity: the acceptance matrix                                #
# ---------------------------------------------------------------------- #


class TestExhaustiveParity:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_engine_degree_matches_exhaustive_everywhere(self, name, path_model):
        """`TopologyEngine.exact_degree()` vs enumeration to 1e-10, full matrix."""
        topology = TOPOLOGIES[name]
        strategy = _strategy(path_model)
        for adversary, receiver, n_compromised in itertools.product(
            list(AdversaryModel), [True, False], [0, 1, 2]
        ):
            model = _model(
                topology,
                path_model,
                n_compromised=n_compromised,
                adversary=adversary,
                receiver_compromised=receiver,
            )
            truth = ExhaustiveAnalyzer(model).anonymity_degree(
                strategy.distribution
            )
            engine = TopologyEngine(model, strategy, model.compromised_nodes())
            assert engine.exact_degree() == pytest.approx(truth, abs=1e-10), (
                f"{name} {path_model.value} {adversary.value} "
                f"receiver={receiver} C={n_compromised}"
            )

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_engine_classes_match_the_threat_model_everywhere(
        self, name, path_model
    ):
        """Each outcome's engine class is the key its observation yields."""
        topology = TOPOLOGIES[name]
        strategy = _strategy(path_model)
        law = TopologyPathLaw(
            topology,
            allow_cycles=path_model is PathModel.CYCLE_ALLOWED,
            length_probs=dict(strategy.distribution.items()),
        )
        for adversary, receiver, n_compromised in itertools.product(
            list(AdversaryModel), [True, False], [0, 1, 2]
        ):
            model = _model(
                topology,
                path_model,
                n_compromised=n_compromised,
                adversary=adversary,
                receiver_compromised=receiver,
            )
            compromised = model.compromised_nodes()
            engine = TopologyEngine(model, strategy, compromised)
            keys = list(engine._table.joint)
            setting = (name, adversary.value, receiver, n_compromised)
            for sender in range(model.n_nodes):
                outcomes = law.entries(sender)
                first = int(engine._offsets[sender])
                indices = range(first, first + len(outcomes))
                assert engine._entry_lengths[indices].tolist() == [
                    length for length, _, _ in outcomes
                ], setting
                for index, (_, path, _) in zip(indices, outcomes):
                    observation = observation_from_path(
                        sender, path, compromised, receiver_compromised=receiver
                    )
                    assert keys[engine._entry_keys[index]] == (
                        observation_class_key(observation, adversary)
                    ), setting
            assert len(engine._entry_keys) == sum(
                len(law.entries(sender)) for sender in range(model.n_nodes)
            )

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_registry_selects_the_topology_engine(self, name, path_model):
        strategy = _strategy(path_model)
        model = _model(TOPOLOGIES[name], path_model)
        selected = select_engine(model, strategy, model.compromised_nodes())
        assert selected is TopologyEngine

    def test_clique_topology_keeps_the_clique_engines(self):
        strategy = _strategy(PathModel.SIMPLE)
        model = SystemModel(n_nodes=6, n_compromised=1, topology=Topology.clique(6))
        selected = select_engine(model, strategy, model.compromised_nodes())
        assert selected is not TopologyEngine

    def test_event_engine_agrees_with_exhaustive(self):
        """Hop-by-hop estimation shares the path law, so it agrees statistically."""
        model = _model(TOPOLOGIES["grid"], PathModel.SIMPLE)
        strategy = _strategy(PathModel.SIMPLE)
        truth = ExhaustiveAnalyzer(model).anonymity_degree(strategy.distribution)
        report = StrategyMonteCarlo(model, strategy).run(2_000, rng=11)
        assert report.estimate.contains(truth, slack=3.0)

    def test_batch_estimate_covers_the_exact_degree(self):
        for name in ("ring", "two-zone"):
            model = _model(TOPOLOGIES[name], PathModel.SIMPLE)
            strategy = _strategy(PathModel.SIMPLE)
            engine = BatchMonteCarlo(model, strategy)
            assert engine.engine.name == "topology"
            report = engine.run(40_000, rng=5)
            truth = TopologyEngine(
                model, strategy, model.compromised_nodes()
            ).exact_degree()
            assert report.estimate.contains(truth, slack=3.5)

    def test_closed_form_analyzer_refuses_non_clique_models(self):
        with pytest.raises(ConfigurationError, match="clique"):
            AnonymityAnalyzer(_model(TOPOLOGIES["ring"], PathModel.SIMPLE))


# ---------------------------------------------------------------------- #
# Sampling and determinism contracts                                      #
# ---------------------------------------------------------------------- #


class TestTopologyDeterminism:
    @pytest.mark.parametrize(
        "path_model", [PathModel.SIMPLE, PathModel.CYCLE_ALLOWED]
    )
    def test_kernel_matches_a_per_trial_bisect_oracle(self, path_model):
        """Vectorised ramp search + bincount == ``bisect_right`` trial by trial."""
        model = _model(TOPOLOGIES["grid"], path_model)
        engine = TopologyEngine(
            model, _strategy(path_model), model.compromised_nodes()
        )
        length_sum, classes = engine.accumulate_chunk(
            20_000, np.random.default_rng(9)
        )
        generator = np.random.default_rng(9)
        senders = generator.integers(0, model.n_nodes, size=20_000).tolist()
        draws = generator.random(20_000).tolist()
        oracle_sum = 0
        oracle_counts: Counter = Counter()
        for sender, draw in zip(senders, draws):
            ramp = engine._ramps[sender].tolist()
            local = min(bisect_right(ramp, draw), len(ramp) - 1)
            index = int(engine._offsets[sender]) + local
            oracle_sum += int(engine._entry_lengths[index])
            oracle_counts[int(engine._entry_keys[index])] += 1
        assert length_sum == oracle_sum
        assert {key: count for key, (count, _, _) in classes.items()} == dict(
            oracle_counts
        )

    def test_batch_bit_deterministic_per_seed(self):
        model = _model(TOPOLOGIES["ring"], PathModel.CYCLE_ALLOWED)
        strategy = _strategy(PathModel.CYCLE_ALLOWED)
        first = BatchMonteCarlo(model, strategy).run(20_000, rng=77)
        second = BatchMonteCarlo(model, strategy).run(20_000, rng=77)
        assert first.estimate == second.estimate
        assert first.identification_rate == second.identification_rate

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_sharded_bit_deterministic_per_seed_and_shards(self, name):
        model = _model(TOPOLOGIES[name], PathModel.SIMPLE)
        strategy = _strategy(PathModel.SIMPLE)
        backend = ShardedBackend(workers=1, shards=3)
        first = backend.estimate(model, strategy, n_trials=15_000, rng=13)
        second = backend.estimate(model, strategy, n_trials=15_000, rng=13)
        assert first.estimate == second.estimate
        assert first.mean_path_length == second.mean_path_length

    def test_simple_path_redraw_realizes_the_renormalized_law(self):
        """On a star, length 2 is infeasible from the hub: the law drops it."""
        topology = TOPOLOGIES["star"]
        law = TopologyPathLaw(
            topology, allow_cycles=False, length_probs={1: 0.5, 2: 0.5}
        )
        assert law.feasible_lengths(0) == {1: 1.0}
        hub = law.entries(0)
        assert all(length == 1 for length, _, _ in hub)
        assert sum(weight for _, _, weight in hub) == pytest.approx(1.0)


# ---------------------------------------------------------------------- #
# Service canonicalisation and caching                                    #
# ---------------------------------------------------------------------- #


class TestTopologyService:
    def _request(self, **overrides) -> EstimateRequest:
        settings = dict(
            n_nodes=12,
            distribution=DistributionSpec("uniform", {"low": 2, "high": 5}),
            precision=0.01,
            block_size=5_000,
            max_trials=200_000,
            seed=7,
            topology="ring",
        )
        settings.update(overrides)
        return EstimateRequest(**settings)

    def test_golden_topology_digest_is_stable(self):
        assert self._request().digest() == TOPOLOGY_REFERENCE_DIGEST

    def test_clique_spec_normalizes_to_the_bare_digest(self):
        bare = self._request(topology=None)
        clique = self._request(topology="clique")
        assert clique.topology is None
        assert clique.digest() == bare.digest()
        # The normalised form is byte-identical to the pre-topology canonical
        # dict: version 2, no topology key — existing caches stay valid.
        canonical = bare.canonical_dict()
        assert canonical["version"] == 2 and "topology" not in canonical

    def test_non_clique_requests_carry_version_3_and_round_trip(self):
        request = self._request()
        canonical = request.canonical_dict()
        assert canonical["version"] == 3 and canonical["topology"] == "ring"
        rebuilt = EstimateRequest.from_canonical_dict(canonical)
        assert rebuilt == request and rebuilt.digest() == request.digest()
        assert request.digest() != self._request(topology=None).digest()

    def test_request_model_carries_the_topology(self):
        model = self._request().model()
        assert model.topology == Topology.ring(12)
        assert not model.clique_routing

    def test_disconnected_spec_rejected_at_request_construction(self):
        with pytest.raises(ConfigurationError):
            self._request(topology="two-zone:6:6:0")

    def test_topology_request_round_trips_bit_identically(self):
        request = self._request(
            n_nodes=8, precision=0.05, max_trials=30_000, block_size=3_000
        )
        with EstimationService() as service:
            cold = service.estimate(request)
            warm = service.estimate(request)
        assert not cold.from_cache and warm.from_cache
        assert warm.report == cold.report
        with EstimationService() as fresh:
            recomputed = fresh.estimate(request)
        assert not recomputed.from_cache
        assert recomputed.report == cold.report

    def test_explicit_compromised_set_is_honoured(self):
        """A request's named compromised node is the one the estimate runs with.

        On a star, compromising leaf 3 instead of the hub (node 0, the
        canonical set) changes the answer, so an ignored set shows.
        """
        request = self._request(
            n_nodes=8,
            topology="star",
            compromised=(3,),
            distribution=DistributionSpec("uniform", {"low": 1, "high": 3}),
            seed=1,
        )
        truth = TopologyEngine(
            request.model(), request.strategy(), frozenset({3})
        ).exact_degree()
        runs = {}
        for backend, options in [
            ("batch", ()),
            ("sharded", (("shards", 2), ("workers", 1))),
            ("sharded", (("shards", 2), ("workers", 2))),
        ]:
            routed = dataclasses.replace(
                request, backend=backend, backend_options=options
            )
            with EstimationService() as service:
                runs[backend, options] = service.estimate(routed).report
        for report in runs.values():
            assert abs(report.degree_bits - truth) <= 5 * report.estimate.std_error
        one_worker, two_workers = (
            runs["sharded", (("shards", 2), ("workers", workers))]
            for workers in (1, 2)
        )
        assert one_worker == two_workers


# ---------------------------------------------------------------------- #
# CLI and experiment registry                                             #
# ---------------------------------------------------------------------- #


class TestTopologyCLI:
    def test_batch_accepts_a_topology_spec(self, capsys):
        assert main([
            "batch", "--n", "8", "--topology", "ring", "--strategy", "uniform",
            "--low", "1", "--high", "3", "--trials", "4000", "--seed", "1",
        ]) == 0
        assert "ring" in capsys.readouterr().out

    def test_estimate_accepts_a_topology_spec(self, capsys):
        assert main([
            "estimate", "--n", "8", "--topology", "grid:2x4",
            "--strategy", "uniform", "--low", "1", "--high", "3",
            "--precision", "0.1", "--block-size", "2000",
            "--max-trials", "8000", "--seed", "2",
        ]) == 0
        assert "grid:2x4" in capsys.readouterr().out

    def test_disconnected_topology_exits_2(self, capsys):
        code = main([
            "batch", "--n", "12", "--topology", "two-zone:6:6:0",
            "--trials", "1000",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_exact_backend_rejects_topologies_cleanly(self, capsys):
        code = main([
            "batch", "--n", "8", "--topology", "ring", "--backend", "exact",
            "--trials", "1000",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--backend batch" in captured.err

    def test_ext_topology_registered(self):
        assert "ext-topology" in list_experiments()
