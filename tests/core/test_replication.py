"""Unit tests for replication and failover (§3.6)."""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.replication import ReplicationManager
from repro.core.search import find_item
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network

DIM = 32
SPACE = KeySpace(10_000)


def make_system(node_ids, replication=2, capacity=None) -> Meteorograph:
    network = Network()
    overlay = TornadoOverlay(SPACE, network)
    cfg = MeteorographConfig(
        scheme=PlacementScheme.NONE,
        node_capacity=capacity,
        replication_factor=replication,
    )
    system = Meteorograph(
        space=SPACE,
        network=network,
        overlay=overlay,
        dim=DIM,
        config=cfg,
        equalizer=None,
    )
    for nid in node_ids:
        overlay.add_node(nid, capacity=capacity)
    return system


NODES = list(range(0, 10_000, 500))


class TestPlacement:
    def test_factor_copies_placed(self):
        system = make_system(NODES, replication=3)
        system.publish(0, 1, [3], [1.0])
        assert system.replication.live_copies(1) == 3

    def test_factor_one_is_primary_only(self):
        system = make_system(NODES, replication=1)
        assert system.replication is None  # manager not even created
        system.publish(0, 1, [3], [1.0])
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        assert len(holders) == 1

    def test_replicas_on_numerically_closest_nodes(self):
        system = make_system(NODES, replication=3)
        system.publish(0, 1, [3], [1.0])
        key = system.published_key_of(1)
        home = system.overlay.home(key)
        expected = {home} | set(system.overlay.replica_homes(home, 2))
        holders = {n.node_id for n in system.network.nodes() if n.has_item(1)}
        assert holders == expected

    def test_replica_messages_charged(self):
        system = make_system(NODES, replication=4)
        before = system.network.sink.count("replicate")
        system.publish(0, 1, [3], [1.0])
        assert system.network.sink.count("replicate") - before == 3

    def test_full_replica_target_skipped(self):
        system = make_system(NODES, replication=3, capacity=1)
        mgr = system.replication
        # Fill the would-be replica homes.
        system.publish(0, 1, [3], [1.0])
        skipped_before = mgr.skipped_replicas
        system.publish(0, 2, [3], [1.0])
        # Same key: replica homes already hold items at capacity 1.
        assert mgr.skipped_replicas > skipped_before

    def test_invalid_factor(self):
        system = make_system(NODES, replication=2)
        with pytest.raises(ValueError):
            ReplicationManager(system, 0)


class TestFailover:
    def test_query_survives_home_failure(self):
        system = make_system(NODES, replication=3)
        system.publish(0, 1, [3], [1.0])
        key = system.published_key_of(1)
        home = system.overlay.home(key)
        system.network.node(home).fail()
        system.overlay.stabilize()
        origin = next(n for n in NODES if system.network.is_alive(n))
        res = find_item(system, origin, 1, max_walk=4)
        assert res.found
        assert res.node_id != home

    def test_all_holders_dead_query_fails(self):
        system = make_system(NODES, replication=2)
        system.publish(0, 1, [3], [1.0])
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        system.network.fail_nodes(holders)
        system.overlay.stabilize()
        origin = next(n for n in NODES if system.network.is_alive(n))
        res = find_item(system, origin, 1, max_walk=3)
        assert not res.found

    def test_live_copies_tracks_failures(self):
        system = make_system(NODES, replication=4)
        system.publish(0, 1, [3], [1.0])
        mgr = system.replication
        assert mgr.live_copies(1) == 4
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        system.network.fail_nodes(holders[:2])
        assert mgr.live_copies(1) == 2
        assert mgr.live_copies(999) == 0


class TestRepair:
    def test_repair_restores_factor(self):
        system = make_system(NODES, replication=3)
        system.publish(0, 1, [3], [1.0])
        mgr = system.replication
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        system.network.fail_nodes(holders[:2])
        system.overlay.stabilize()
        assert mgr.live_copies(1) == 1
        placed = mgr.repair()
        assert placed >= 2
        assert mgr.live_copies(1) >= 3

    def test_repair_noop_when_healthy(self):
        system = make_system(NODES, replication=2)
        system.publish(0, 1, [3], [1.0])
        assert system.replication.repair() == 0

    def test_repair_impossible_when_no_copy_survives(self):
        system = make_system(NODES, replication=2)
        system.publish(0, 1, [3], [1.0])
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        system.network.fail_nodes(holders)
        assert system.replication.repair() == 0
        assert system.replication.live_copies(1) == 0

    def test_scheduled_repair_runs(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        network = Network(simulator=sim)
        overlay = TornadoOverlay(SPACE, network)
        cfg = MeteorographConfig(
            scheme=PlacementScheme.NONE, replication_factor=2
        )
        system = Meteorograph(
            space=SPACE, network=network, overlay=overlay, dim=DIM,
            config=cfg, equalizer=None,
        )
        for nid in NODES:
            overlay.add_node(nid)
        system.publish(NODES[0], 1, [3], [1.0])
        holders = [n.node_id for n in network.nodes() if n.has_item(1)]
        network.fail_nodes(holders[:1])
        overlay.stabilize()
        system.replication.schedule(interval=5.0)
        sim.run(until=6.0)
        assert system.replication.live_copies(1) >= 2

    def test_schedule_requires_simulator(self):
        system = make_system(NODES, replication=2)
        with pytest.raises(RuntimeError):
            system.replication.schedule(1.0)

    def test_schedule_returns_stoppable_task(self):
        from repro.sim.engine import PeriodicTask, Simulator

        system = make_system(NODES, replication=2)
        sim = system.network.simulator = Simulator()
        system.publish(NODES[0], 1, [3], [1.0])
        task = system.replication.schedule(interval=5.0)
        assert isinstance(task, PeriodicTask)
        sim.run(until=6.0)
        assert task.fire_count == 1
        task.stop()
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        system.network.fail_nodes(holders[:1])
        system.overlay.stabilize()
        sim.run(until=30.0)
        # Stopped: no further repair pass fired, the lost copy stays lost.
        assert task.fire_count == 1
        assert system.replication.live_copies(1) == 1
