"""Unit tests for the message fabric."""

import numpy as np
import pytest

from repro.overload.admission import AdmissionController, OverloadPolicy
from repro.sim.engine import Simulator
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.network import DeadNodeError, Network
from repro.sim.node import PeerNode, StoredItem


def make_network(n: int = 3) -> Network:
    net = Network()
    for i in range(n):
        net.add_node(PeerNode(i * 10))
    return net


class TestMembership:
    def test_add_and_lookup(self):
        net = make_network()
        assert len(net) == 3
        assert 10 in net
        assert net.node(10).node_id == 10

    def test_duplicate_id_rejected(self):
        net = make_network()
        with pytest.raises(ValueError):
            net.add_node(PeerNode(0))

    def test_remove(self):
        net = make_network()
        removed = net.remove_node(10)
        assert removed.node_id == 10
        assert 10 not in net
        with pytest.raises(KeyError):
            net.remove_node(10)

    def test_missing_lookup_raises(self):
        with pytest.raises(KeyError):
            make_network().node(999)

    def test_alive_tracking(self):
        net = make_network()
        net.node(10).fail()
        assert not net.is_alive(10)
        assert net.is_alive(0)
        assert net.alive_count() == 2
        assert sorted(net.alive_ids()) == [0, 20]
        assert not net.is_alive(999)  # unknown id is not alive


class TestSend:
    def test_send_charges_and_returns_node(self):
        net = make_network()
        node = net.send(0, 10, kind="route")
        assert node.node_id == 10
        assert net.sink.count("route") == 1

    def test_send_to_dead_charges_then_raises(self):
        net = make_network()
        net.node(10).fail()
        with pytest.raises(DeadNodeError):
            net.send(0, 10)
        assert net.sink.count("route") == 1

    def test_send_to_unknown_raises(self):
        net = make_network()
        with pytest.raises(DeadNodeError):
            net.send(0, 12345)

    def test_try_send_returns_none_for_dead(self):
        net = make_network()
        net.node(10).fail()
        assert net.try_send(0, 10) is None
        assert net.try_send(0, 20) is not None


class TestSendAfter:
    def test_delivery_through_simulator(self):
        sim = Simulator()
        net = Network(simulator=sim)
        net.add_node(PeerNode(1))
        net.add_node(PeerNode(2))
        got = []
        net.send_after(3.0, 1, 2, lambda node: got.append((sim.now, node.node_id)))
        assert net.sink.total == 1  # charged at send time
        sim.run()
        assert got == [(3.0, 2)]

    def test_in_flight_loss_on_failure(self):
        sim = Simulator()
        net = Network(simulator=sim)
        net.add_node(PeerNode(1))
        net.add_node(PeerNode(2))
        got = []
        net.send_after(3.0, 1, 2, lambda node: got.append(node.node_id))
        sim.schedule(1.0, lambda: net.node(2).fail())
        sim.run()
        assert got == []

    def test_requires_simulator(self):
        net = make_network()
        with pytest.raises(RuntimeError):
            net.send_after(1.0, 0, 10, lambda n: None)


class TestBulk:
    def test_fail_nodes_counts_transitions(self):
        net = make_network()
        assert net.fail_nodes([0, 10]) == 2
        assert net.fail_nodes([0, 20, 999]) == 1

    def test_total_items(self):
        net = make_network()
        item = StoredItem(1, 0, 0, np.array([1]), np.array([1.0]))
        net.node(0).store(item)
        net.node(10).store(item)
        assert net.total_items() == 2
        net.node(10).fail()
        assert net.total_items() == 1
        assert net.total_items(include_dead=True) == 2

    def test_charge_bulk_refuses_a_fault_plane_or_admission(self):
        """A bulk bill skips the per-message verdicts, so it must not run
        where a fault plane or an admission controller would give one."""
        net = make_network()
        net.charge_bulk("displace", 2)
        net.attach_link_faults(LinkFaultPlane(seed=1))
        with pytest.raises(RuntimeError, match="fault plane"):
            net.charge_bulk("displace", 2)
        net.attach_link_faults(None)
        net.attach_admission(AdmissionController(OverloadPolicy()))
        with pytest.raises(RuntimeError, match="admission"):
            net.charge_bulk("displace", 2)
        assert net.sink.count("displace") == 2
