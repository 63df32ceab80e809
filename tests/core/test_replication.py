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


def make_system(node_ids, replication=2, capacity=None, pointers=False) -> Meteorograph:
    network = Network()
    overlay = TornadoOverlay(SPACE, network)
    cfg = MeteorographConfig(
        scheme=PlacementScheme.NONE,
        node_capacity=capacity,
        replication_factor=replication,
        directory_pointers=pointers,
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
        """Factor 1 is a record with one holder and no replicas."""
        system = make_system(NODES, replication=1)
        system.publish(0, 1, [3], [1.0])
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        assert len(holders) == 1
        assert system.replication.holders[1] == set(holders)
        assert system.network.sink.count("replicate") == 0

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

    @pytest.mark.parametrize("count", [0, -1, -3])
    def test_count_below_one_is_no_replicas(self, count):
        """``replica_homes`` asks for nothing, and a config that would
        silently run unreplicated is refused."""
        overlay = TornadoOverlay(SPACE, Network())
        overlay.add_nodes((nid, None) for nid in [10, 20, 30, 50, 90])
        assert overlay.replica_homes(30, count) == []
        with pytest.raises(ValueError, match="replication_factor"):
            MeteorographConfig(replication_factor=count)


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
        sim.schedule_every(5.0, system.replication.repair)
        sim.run(until=6.0)
        assert system.replication.live_copies(1) >= 2

    def test_schedule_returns_stoppable_task(self):
        from repro.sim.engine import PeriodicTask, Simulator

        system = make_system(NODES, replication=2)
        sim = system.network.simulator = Simulator()
        system.publish(NODES[0], 1, [3], [1.0])
        task = sim.schedule_every(5.0, system.replication.repair)
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


def stored_holders(system, item_id) -> set[int]:
    return {n.node_id for n in system.network.nodes() if n.has_item(item_id)}


class TestLedger:
    """The item record: credited ⇔ stored, both directions agree."""

    def test_node_entries_transpose_the_records(self):
        system = make_system(NODES, replication=3)
        for i in range(6):
            system.publish(0, i, [3, 4 + i], [1.0, 0.5])
        mgr = system.replication
        for item_id, holders in mgr.holders.items():
            assert holders == stored_holders(system, item_id)
            for node_id in holders:
                assert item_id in mgr.items_of(node_id)
        credits = sum(len(held) for held in mgr.held.values())
        assert credits == sum(len(h) for h in mgr.holders.values())

    def test_displaced_copies_move_their_credit(self):
        """At finite capacity the displacement chain evicts and pushes
        copies; each credit follows its copy, and the primary is
        credited where it landed, not at the route's home."""
        from repro.maint import check_holder_index

        system = make_system(NODES, replication=2, capacity=2)
        for i in range(12):
            system.publish(0, i, [3, 4 + i % 3], [1.0, 0.5 + i / 20])
        report = check_holder_index(system)
        assert report.ok, report.samples
        for item_id, holders in system.replication.holders.items():
            assert holders == stored_holders(system, item_id)

    def test_republish_refreshes_the_record(self):
        """A republish under a new key repairs the new vector at the new
        key's homes, not the first publish's."""
        system = make_system(NODES, replication=2)
        system.publish(0, 1, [3], [1.0])
        old_key = system.published_key_of(1)
        system.publish(0, 1, list(range(3, 11)), [1.0] * 8)
        new_key = system.published_key_of(1)
        assert new_key != old_key
        home = system.overlay.home(new_key)
        assert home in system.replication.holders[1]
        for node_id in system.replication.holders[1]:
            copy = system.network.node(node_id).get_item(1)
            assert copy.publish_key == new_key
            assert list(copy.keyword_ids) == list(range(3, 11))


def row_holders(system, item_id) -> set[int]:
    return {
        n.node_id
        for n in system.network.nodes()
        if n.pointers is not None and item_id in n.pointers
    }


class TestWithdraw:
    """Republish, expiry and a drop withdraw the copies the record names."""

    @pytest.mark.parametrize("factor", [1, 2])
    def test_republish_leaves_only_the_new_placement(self, factor):
        """Item 1 republished under a new key: the previous copies go,
        so the record credits exactly the nodes holding the new vector,
        and repair sources and counts only those."""
        system = make_system(NODES, replication=factor)
        system.publish(0, 1, [3], [1.0])
        system.publish(0, 1, list(range(3, 11)), [1.0] * 8)
        home = system.overlay.home(system.published_key_of(1))
        placed = {home, *system.overlay.replica_homes(home, factor - 1)}
        assert stored_holders(system, 1) == placed
        assert system.replication.holders[1] == placed
        assert system.network.sink.count("withdraw") >= 1
        if factor > 1:
            system.network.fail_node(4000)
            system.overlay.stabilize()
            placed_now, live = system.replication.repair_record(1)
            assert placed_now == 1 and live == factor
            for node_id in system.replication.live_holders(1):
                copy = system.network.node(node_id).get_item(1)
                assert list(copy.keyword_ids) == list(range(3, 11))

    @pytest.mark.parametrize("factor", [1, 2])
    def test_expiry_leaves_no_pointer_row(self, factor):
        from repro.core.softstate import SoftStateManager
        from repro.sim.engine import Simulator

        system = make_system(NODES, replication=factor, pointers=True)
        sim = system.network.simulator = Simulator()
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        mgr.publish(0, 1, [3], [1.0])
        assert row_holders(system, 1)
        sim.run(until=11.0)
        assert mgr.expire_stale() == factor + 1  # the bodies and the row
        assert not stored_holders(system, 1)
        assert not row_holders(system, 1)
        assert 1 not in system.replication.rows

    def test_row_placed_on_a_degraded_ring_follows_its_holder(self):
        """The angle home is down when item 1 is published, so its row
        lands on a neighbour; after the home recovers, a republish under
        a new angle key withdraws the row from the neighbour that holds
        it, not from the live angle home of the old key (which is also
        the new key's)."""
        system = make_system(NODES, replication=1, pointers=True)
        angle_key = system.item_keys(np.array([3]), np.ones(1))[0]
        angle_home = system.overlay.home(angle_key)
        system.network.fail_node(angle_home)
        system.overlay.stabilize()
        system.publish(0, 1, [3], [1.0])
        (stand_in,) = row_holders(system, 1)
        assert stand_in != angle_home
        system.network.recover_node(angle_home)
        system.overlay.stabilize()
        system.publish(0, 1, [3, 4], [1.0, 1.0])
        new_angle = system.item_keys(np.array([3, 4]), np.ones(2))[0]
        assert row_holders(system, 1) == {system.overlay.home(new_angle)}
