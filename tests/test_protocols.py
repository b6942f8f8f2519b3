"""Tests for the protocol implementations.

For every protocol the operational face (originate/forward run through the
simulator) must agree with the analytical face (the path-selection strategy):
path lengths must follow the declared distribution and intermediate nodes must
respect the declared path model.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np
import pytest

from repro.core.model import PathModel, SystemModel
from repro.distributions import FixedLength
from repro.exceptions import ProtocolError
from repro.protocols import (
    AnonymizerProtocol,
    CrowdsProtocol,
    FreedomProtocol,
    HordesProtocol,
    OnionRoutingI,
    OnionRoutingII,
    PipeNetProtocol,
    RemailerChainProtocol,
)
from repro.simulation import AnonymousCommunicationSystem


def run_protocol(protocol, n_messages=60, n_nodes=None, n_compromised=1, seed=3):
    """Drive a protocol through the engine and return the delivered paths."""
    n_nodes = n_nodes or protocol.n_nodes
    model = SystemModel(n_nodes=n_nodes, n_compromised=n_compromised)
    system = AnonymousCommunicationSystem(model=model, protocol=protocol)
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(n_messages):
        sender = int(rng.integers(0, n_nodes))
        outcome = system.send(sender, payload="x", rng=rng)
        paths.append((sender, outcome.delivery.path))
    return paths


def _by_class(classes):
    return pytest.mark.parametrize(
        "protocol_class", classes, ids=lambda protocol_class: protocol_class.__name__
    )


#: The protocols whose sender fixes the whole route at origination.
ROUTED = _by_class([
    AnonymizerProtocol,
    FreedomProtocol,
    OnionRoutingI,
    OnionRoutingII,
    PipeNetProtocol,
    RemailerChainProtocol,
])
#: Every protocol the simulator runs.
EVERY = _by_class([
    AnonymizerProtocol,
    CrowdsProtocol,
    FreedomProtocol,
    HordesProtocol,
    OnionRoutingI,
    OnionRoutingII,
    PipeNetProtocol,
    RemailerChainProtocol,
])


class TestSourceRoutedProtocols:
    @pytest.mark.parametrize(
        "factory,expected_length",
        [
            (lambda: OnionRoutingI(15), 5),
            (lambda: FreedomProtocol(15), 3),
            (lambda: AnonymizerProtocol(15), 1),
        ],
    )
    def test_fixed_length_protocols_respect_their_length(self, factory, expected_length):
        for sender, path in run_protocol(factory(), n_messages=30):
            assert len(path) == expected_length
            assert sender not in path
            assert len(set(path)) == len(path)

    def test_pipenet_uses_three_or_four_hops(self):
        lengths = {len(path) for _, path in run_protocol(PipeNetProtocol(15), n_messages=80)}
        assert lengths == {3, 4}

    def test_remailer_chain_lengths_within_bounds(self):
        protocol = RemailerChainProtocol(15, min_chain=2, max_chain=4)
        lengths = {len(path) for _, path in run_protocol(protocol, n_messages=80)}
        assert lengths.issubset({2, 3, 4})
        assert len(lengths) > 1

    def test_onion_routing_two_produces_variable_lengths(self):
        protocol = OnionRoutingII(15, p_forward=0.5)
        lengths = [len(path) for _, path in run_protocol(protocol, n_messages=120)]
        assert min(lengths) >= 1
        assert len(set(lengths)) > 1
        assert np.mean(lengths) == pytest.approx(2.0, abs=0.6)

    @EVERY
    def test_payload_is_delivered_unchanged(self, protocol_class):
        model = SystemModel(n_nodes=12, n_compromised=1)
        system = AnonymousCommunicationSystem(model=model, protocol=protocol_class(12))
        payload = b"GET /page"
        outcome = system.send(4, payload=payload, rng=1)
        assert outcome.message.payload is payload

    @ROUTED
    def test_forward_rejects_wrong_node(self, protocol_class):
        protocol = protocol_class(10)
        message = protocol.originate(0, "x", rng=1)
        wrong_node = (message.route[0] + 1) % 10
        with pytest.raises(ProtocolError):
            protocol.forward(wrong_node, message, rng=1)

    @ROUTED
    def test_forward_rejects_an_exhausted_route(self, protocol_class):
        protocol = protocol_class(10)
        message = protocol.originate(0, "x", rng=1)
        first_hop = message.route[0]
        message.route.clear()
        with pytest.raises(ProtocolError):
            protocol.forward(first_hop, message, rng=1)

    @ROUTED
    def test_delivered_path_is_the_originated_route(self, protocol_class):
        model = SystemModel(n_nodes=12, n_compromised=1)
        system = AnonymousCommunicationSystem(model=model, protocol=protocol_class(12))
        rng = np.random.default_rng(6)
        for sender in range(12):
            outcome = system.send(sender, rng=rng)
            assert outcome.delivery.path == tuple(outcome.message.route)

    def test_strategies_report_correct_distributions(self):
        assert OnionRoutingI(10).strategy().distribution == FixedLength(5)
        assert FreedomProtocol(10).strategy().distribution == FixedLength(3)
        assert AnonymizerProtocol(10).strategy().distribution == FixedLength(1)
        assert OnionRoutingII(10).strategy().path_model is PathModel.CYCLE_ALLOWED


class TestAnonymizer:
    def test_dedicated_proxy_used_when_configured(self):
        protocol = AnonymizerProtocol(12, dedicated_proxy=7)
        for sender, path in run_protocol(protocol, n_messages=20):
            if sender != 7:
                assert path == (7,)

    def test_invalid_proxy_rejected(self):
        with pytest.raises(ProtocolError):
            AnonymizerProtocol(5, dedicated_proxy=9)


class TestCrowds:
    def test_path_lengths_are_geometric(self):
        protocol = CrowdsProtocol(20, p_forward=0.6)
        lengths = [len(path) for _, path in run_protocol(protocol, n_messages=250, seed=5)]
        assert min(lengths) >= 1
        # Expected length of a geometric with p_forward=0.6 and one mandatory hop.
        assert np.mean(lengths) == pytest.approx(1 + 0.6 / 0.4, abs=0.45)

    def test_sender_never_forwards_to_itself_first(self):
        protocol = CrowdsProtocol(10, p_forward=0.5)
        for sender, path in run_protocol(protocol, n_messages=60, seed=9):
            assert path[0] != sender

    def test_probable_innocence_condition(self):
        assert CrowdsProtocol(20, p_forward=0.75).probable_innocence_holds(n_compromised=3)
        assert not CrowdsProtocol(5, p_forward=0.75).probable_innocence_holds(n_compromised=3)
        assert not CrowdsProtocol(20, p_forward=0.5).probable_innocence_holds(n_compromised=1)

    def test_forward_probability_one_rejected(self):
        with pytest.raises(ProtocolError):
            CrowdsProtocol(10, p_forward=1.0)

    def test_static_paths_are_reused(self):
        protocol = CrowdsProtocol(12, p_forward=0.7, static_paths=True)
        model = SystemModel(n_nodes=12, n_compromised=1)
        system = AnonymousCommunicationSystem(model=model, protocol=protocol)
        rng = np.random.default_rng(4)
        first = system.send(3, rng=rng).delivery.path
        second = system.send(3, rng=rng).delivery.path
        third = system.send(3, rng=rng).delivery.path
        assert first == second == third

    def test_hordes_shares_crowds_forwarding(self):
        protocol = HordesProtocol(15, p_forward=0.6, multicast_group_size=4)
        message = protocol.originate(2, "req", rng=1)
        assert message.metadata["multicast_group_size"] == 4
        assert protocol.strategy().path_model is PathModel.CYCLE_ALLOWED


class TestProtocolStrategyConsistency:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: OnionRoutingI(18),
            lambda: FreedomProtocol(18),
            lambda: PipeNetProtocol(18),
            lambda: RemailerChainProtocol(18, 2, 5),
        ],
    )
    def test_operational_lengths_match_declared_distribution(self, factory):
        protocol = factory()
        distribution = protocol.strategy().effective_distribution(protocol.n_nodes)
        observed = collections.Counter(
            len(path) for _, path in run_protocol(protocol, n_messages=200, seed=8)
        )
        support = set(distribution.support)
        assert set(observed).issubset(support)
        # Every support point of a non-degenerate distribution should show up
        # in a couple hundred trials (all our supports have <= 5 points).
        if len(support) > 1:
            assert len(observed) > 1

    def test_describe_includes_protocol_name(self):
        assert "Freedom" in FreedomProtocol(10).describe()


def _tick(timestamp):
    """A timestamp of the unit constant-latency clock, as the int it must be."""
    assert timestamp == int(timestamp)
    return int(timestamp)


def draw_rows(protocol, n_compromised, n_messages=40, seed=11):
    """One row of plain ints and tuples per message sent from one generator."""
    model = SystemModel(n_nodes=protocol.n_nodes, n_compromised=n_compromised)
    system = AnonymousCommunicationSystem(model=model, protocol=protocol)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_messages):
        sender = int(rng.integers(0, protocol.n_nodes))
        outcome = system.send(sender, payload="x", rng=rng)
        observation = outcome.observation
        receiver = observation.receiver_report
        rows.append((
            sender,
            tuple(int(node) for node in outcome.delivery.path),
            _tick(outcome.delivery.delivered_at),
            tuple(
                (_tick(r.timestamp), int(r.node), int(r.predecessor),
                 r.successor if isinstance(r.successor, str) else int(r.successor),
                 r.position)
                for r in observation.hop_reports
            ),
            None if receiver is None else (_tick(receiver.timestamp), int(receiver.predecessor)),
            tuple(sorted(int(node) for node in observation.silent_compromised)),
            observation.origin_node,
        ))
    return rows


#: SHA-256 of ``repr(draw_rows(cls(12), C))``: every sender, delivered path,
#: delivery time and observation field each protocol produces from seed 11 at
#: N = 12.  A change that draws nothing must leave every digest as it is.
#: Hordes shares Crowds' forward path and default coin, hence its digests.
DRAW_DIGESTS = {
    (AnonymizerProtocol, 1):
        "4eff9a6bd4499769496178ee4da15cebeb5a8d3e426986875ecc6a867767187c",
    (AnonymizerProtocol, 2):
        "44c1a77f1b5f8dcb8ca8e337caa223b72093ce208d8bbb983778009e61ae31d7",
    (CrowdsProtocol, 1):
        "594e7677433ed563c686febe4bdbd1421286ea91c01c2054a0d9fcd0c9d8ff26",
    (CrowdsProtocol, 2):
        "f4f9c9da1777d31b5a05b5cfdca00b3e69af3d6db9fb1e1ead1b037532a9d24d",
    (FreedomProtocol, 1):
        "fc569088a1cff9bf43f50f9b6e2386e513671b2dd0ab394cb4e1f33ee1efbe7d",
    (FreedomProtocol, 2):
        "4dc64ad46afaa1940a3efb3a4d48f206eccd271b14d6120c54a1d05cef66d980",
    (HordesProtocol, 1):
        "594e7677433ed563c686febe4bdbd1421286ea91c01c2054a0d9fcd0c9d8ff26",
    (HordesProtocol, 2):
        "f4f9c9da1777d31b5a05b5cfdca00b3e69af3d6db9fb1e1ead1b037532a9d24d",
    (OnionRoutingI, 1):
        "671a5828a292dafd6ad82d45e7cbb5abcb5b29e08fdf1120097b187d2349feba",
    (OnionRoutingI, 2):
        "a3ab741601dde01aa9cfd06658daa2e8b6cd7411d8b98ea047b90e7d970da4af",
    (OnionRoutingII, 1):
        "247dc429527cf7400cf4cbca044cce28425bf19670c61abd04f679e2d1016c0f",
    (OnionRoutingII, 2):
        "1cbe5641fd012bc380d90ef84fb57e29659b022d06d20b3636c5e142691c14c4",
    (PipeNetProtocol, 1):
        "c1a9eef8742ffec89dbfae4c82947257c2c0ef63e4d0bf92af420320594dd71e",
    (PipeNetProtocol, 2):
        "5b3e3430d1c3c94f5a67cd307a56bcbba6c65478ee9fa433047fdd5a1e99cf3d",
    (RemailerChainProtocol, 1):
        "33b96b44ff2048a4f0ce31becbb8ae72135e591916f04fe431bf0e06bcb9dec9",
    (RemailerChainProtocol, 2):
        "1a0aa16d733733da7318afb28764473dd7f590a9a4e69049a05ffc369be51336",
}


@pytest.mark.parametrize(
    "protocol_class,n_compromised",
    sorted(DRAW_DIGESTS, key=lambda key: (key[0].__name__, key[1])),
    ids=lambda value: getattr(value, "__name__", f"C{value}"),
)
def test_seeded_draws_are_pinned(protocol_class, n_compromised):
    rows = draw_rows(protocol_class(12), n_compromised)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == DRAW_DIGESTS[protocol_class, n_compromised], rows[:3]
