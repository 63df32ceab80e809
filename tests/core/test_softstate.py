"""Unit tests for soft-state republish and expiry (§3.6)."""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.softstate import SoftStateManager
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.engine import Simulator
from repro.sim.network import Network

SPACE = KeySpace(1 << 16)
NODES = list(range(0, 1 << 16, (1 << 16) // 24))


def make_system(replication=1):
    sim = Simulator()
    network = Network(simulator=sim)
    overlay = TornadoOverlay(SPACE, network)
    system = Meteorograph(
        space=SPACE,
        network=network,
        overlay=overlay,
        dim=16,
        config=MeteorographConfig(
            scheme=PlacementScheme.NONE, replication_factor=replication
        ),
        equalizer=None,
    )
    for nid in NODES:
        overlay.add_node(nid)
    return system, sim


class TestValidation:
    def test_interval_must_beat_ttl(self):
        system, _ = make_system()
        with pytest.raises(ValueError):
            SoftStateManager(system, ttl=10.0, republish_interval=10.0)
        with pytest.raises(ValueError):
            SoftStateManager(system, ttl=0, republish_interval=1)


class TestPublishAndExpiry:
    def test_publish_registers_ownership(self):
        system, _ = make_system()
        mgr = SoftStateManager(system, ttl=30, republish_interval=10)
        res = mgr.publish(NODES[0], 1, [2, 3], [1.0, 1.0])
        assert res.success
        assert mgr.live_items() == 1
        assert mgr.orphaned_items() == 0

    def test_unrefreshed_item_expires(self):
        system, sim = make_system()
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        mgr.publish(NODES[0], 1, [2], [1.0])
        sim.run(until=11.0)  # no republish scheduled — item goes stale
        purged = mgr.expire_stale()
        assert purged == 1
        assert mgr.live_items() == 0
        assert system.network.total_items() == 0

    def test_refresh_extends_lifetime(self):
        system, sim = make_system()
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        mgr.publish(NODES[0], 1, [2], [1.0])
        sim.run(until=8.0)
        assert mgr.republish_all() == 1
        sim.run(until=12.0)  # past original deadline but refreshed at t=8
        assert mgr.expire_stale() == 0
        assert system.network.total_items() == 1

    def test_dead_owner_item_orphans_then_expires(self):
        system, sim = make_system()
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        mgr.publish(NODES[0], 1, [2], [1.0])
        system.network.node(NODES[0]).fail()
        assert mgr.orphaned_items() == 1
        assert mgr.republish_all() == 0  # dead owners do not refresh
        sim.run(until=11.0)
        assert mgr.expire_stale() == 1

    def test_republish_purges_superseded_copies(self):
        system, sim = make_system(replication=3)
        mgr = SoftStateManager(system, ttl=30, republish_interval=5)
        mgr.publish(NODES[0], 1, [2], [1.0])
        copies_before = sum(
            1 for n in system.network.nodes() if n.has_item(1)
        )
        mgr.republish_all()
        copies_after = sum(1 for n in system.network.nodes() if n.has_item(1))
        assert copies_after == copies_before  # superseded, not duplicated

    def test_expiry_purge_uncredits_every_copy(self):
        """Expiry withdraws every copy and uncredits it on both sides of
        the record, so no node is credited with an expired copy."""
        from repro.maint import check_holder_index

        system, sim = make_system(replication=2)
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        for i in range(5):
            mgr.publish(NODES[i], i, [2 + i], [1.0])
        sim.run(until=11.0)
        assert mgr.expire_stale() == 10
        assert not any(system.replication.holders.values())
        assert check_holder_index(system).ok
        assert not any(system.replication.held.values())


class TestRecovery:
    def test_republish_rehomes_after_home_failure(self):
        system, sim = make_system()
        mgr = SoftStateManager(system, ttl=30, republish_interval=5)
        mgr.publish(NODES[3], 1, [2], [1.0])
        holder = next(n.node_id for n in system.network.nodes() if n.has_item(1))
        system.network.node(holder).fail()
        system.overlay.stabilize()
        assert mgr.republish_all() == 1
        new_holder = [
            n.node_id
            for n in system.network.nodes()
            if n.alive and n.has_item(1)
        ]
        assert new_holder and new_holder[0] != holder
        res = system.find(NODES[3], 1)
        assert res.found

    def test_scheduled_soft_state_keeps_items_alive(self):
        system, sim = make_system()
        mgr = SoftStateManager(system, ttl=12, republish_interval=4)
        for i in range(5):
            mgr.publish(NODES[i], i, [2 + i], [1.0])
        mgr.schedule()
        sim.run(until=50.0)
        assert mgr.live_items() == 5
        assert system.network.total_items() == 5
        assert mgr.republished >= 5 * 10  # ~12 rounds of 5 items

    def test_schedule_requires_simulator(self):
        network = Network()  # no simulator
        overlay = TornadoOverlay(SPACE, network)
        system = Meteorograph(
            space=SPACE, network=network, overlay=overlay, dim=16,
            config=MeteorographConfig(scheme=PlacementScheme.NONE),
            equalizer=None,
        )
        mgr = SoftStateManager(system, ttl=10, republish_interval=3)
        with pytest.raises(RuntimeError):
            mgr.schedule()
