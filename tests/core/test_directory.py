"""Unit tests for directory pointers (§3.5.2)."""

import numpy as np

from repro.core.publish import publish_pointer
from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network
from repro.sim.node import StoredItem

DIM = 16
SPACE = KeySpace(10_000)


def make_system(node_ids):
    network = Network()
    overlay = TornadoOverlay(SPACE, network)
    system = Meteorograph(
        space=SPACE,
        network=network,
        overlay=overlay,
        dim=DIM,
        config=MeteorographConfig(
            scheme=PlacementScheme.NONE, directory_pointers=True
        ),
        equalizer=None,
    )
    for nid in node_ids:
        overlay.add_node(nid)
    return system


def make_item(item_id, angle_key, body_key):
    return StoredItem(
        item_id=item_id,
        publish_key=body_key,
        angle_key=angle_key,
        keyword_ids=np.array([1, 2]),
        weights=np.ones(2),
    )


class TestPublishPointer:
    def test_pointer_lands_at_angle_home(self):
        system = make_system(list(range(0, 10_000, 500)))
        item = make_item(7, angle_key=1234, body_key=8000)
        hops = publish_pointer(system, 8000, item)
        home = system.overlay.home(1234)
        node = system.network.node(home)
        assert 7 in node.pointers
        assert hops >= 0

    def test_pointer_row_is_the_item(self):
        """The row is the item itself: its keywords and weights answer the
        stage-1 query, its ``publish_key`` names the body's home."""
        system = make_system(list(range(0, 10_000, 500)))
        item = make_item(7, angle_key=1234, body_key=8000)
        publish_pointer(system, 8000, item)
        node = system.network.node(system.overlay.home(1234))
        assert node.pointers.item(7) == item
        assert node.pointers.item(7).publish_key == 8000
        assert node.index is None  # the angle home holds no body

    def test_pointer_messages_charged(self):
        system = make_system(list(range(0, 10_000, 500)))
        before = system.network.sink.count("pointer")
        hops = publish_pointer(system, 8000, make_item(1, 100, 8000))
        assert system.network.sink.count("pointer") - before == hops

    def test_publish_emits_pointer_automatically(self):
        system = make_system(list(range(0, 10_000, 500)))
        system.publish(0, 3, [1, 2], [1.0, 1.0])
        total_pointers = sum(
            len(n.pointers) for n in system.network.nodes() if n.pointers is not None
        )
        assert total_pointers == 1

    def test_republish_under_a_new_angle_withdraws_the_old_row(self):
        """A republish that moves the angle key takes the earlier row
        off the old angle home, which the item record names, and the
        earlier body off the old home: two billed ``withdraw`` messages.
        The ``pointer`` bill is the new row's route."""
        system = make_system(list(range(0, 10_000, 250)))
        system.publish(0, 1, [3], [1.0])
        old_row = system.replication.rows[1]
        before = system.network.sink.count("pointer")
        withdrawn = system.network.sink.count("withdraw")
        system.publish(0, 1, list(range(3, 11)), [1.0] * 8)
        rows = [
            n.node_id
            for n in system.network.nodes()
            if n.pointers is not None and 1 in n.pointers
        ]
        assert len(rows) == 1
        item = system.network.node(rows[0]).pointers.item(1)
        assert list(item.keyword_ids) == list(range(3, 11))
        assert rows[0] == system.overlay.home(item.angle_key) == system.replication.rows[1]
        assert rows[0] != old_row
        origin = system.overlay.home(system.published_key_of(1))
        route = system.overlay.route(origin, item.angle_key, kind="probe").hops
        assert system.network.sink.count("pointer") - before == route
        assert system.network.sink.count("withdraw") - withdrawn == 2

    def test_a_publish_that_drops_its_own_item_places_no_pointer(self):
        """At capacity 1 with no displacement budget every later publish
        drops its own item; a pointer row for it would name no body."""
        config = MeteorographConfig(
            scheme=PlacementScheme.NONE,
            directory_pointers=True,
            node_capacity=1,
            hop_budget=0,
        )
        rng = np.random.default_rng(0)
        system = Meteorograph.build(8, DIM, rng=rng, config=config)
        origin = system.random_origin(rng)
        results = [
            system.publish(origin, i, [3, 4 + i], [1.0, 0.5]) for i in range(6)
        ]
        dropped = {r.item_id for r in results if r.dropped_item_id == r.item_id}
        assert dropped == {1, 2, 3, 4, 5}
        held = {i for n in system.network.nodes() for i in n.item_ids()}
        rows = {
            i
            for n in system.network.nodes()
            if n.pointers is not None
            for i in n.pointers.items_by_id()
        }
        assert rows == held == {0}

    def test_a_dropped_victim_loses_its_pointer_row(self):
        """At capacity 1 with no displacement budget, items 1 and 2 each
        displace the stored item, which drops at the home: its row is
        withdrawn with one billed ``withdraw`` message from there to the
        row holder the item record names."""
        config = MeteorographConfig(
            scheme=PlacementScheme.NONE,
            directory_pointers=True,
            node_capacity=1,
            hop_budget=0,
        )
        rng = np.random.default_rng(0)
        system = Meteorograph.build(8, DIM, rng=rng, config=config)
        origin = system.random_origin(rng)
        results, bills, withdrawals = [], [], []
        sink = system.network.sink
        for item_id, kws in ((0, list(range(3, 9))), (1, [3]), (2, [3, 9])):
            before, withdrawn = sink.count("pointer"), sink.count("withdraw")
            results.append(system.publish(origin, item_id, kws, [1.0] * len(kws)))
            bills.append(sink.count("pointer") - before)
            withdrawals.append(sink.count("withdraw") - withdrawn)
        assert [r.dropped_item_id for r in results] == [None, 0, 1]
        held = {i for n in system.network.nodes() for i in n.item_ids()}
        rows = {
            i
            for n in system.network.nodes()
            if n.pointers is not None
            for i in n.pointers.items_by_id()
        }
        assert rows == held == {2}
        home = results[2].home
        key = system.item_keys(np.array([3, 9]), np.ones(2))[0]
        assert bills[2] == system.overlay.route(home, key, kind="probe").hops
        assert withdrawals == [0, 1, 1]
        assert set(system.replication.rows) == {2}

    def test_a_dropped_victim_with_a_replica_keeps_its_row(self):
        """The row stays while another copy of the victim is held."""
        config = MeteorographConfig(
            scheme=PlacementScheme.NONE,
            directory_pointers=True,
            node_capacity=1,
            hop_budget=0,
            replication_factor=2,
        )
        rng = np.random.default_rng(0)
        system = Meteorograph.build(8, DIM, rng=rng, config=config)
        origin = system.random_origin(rng)
        system.publish(origin, 0, list(range(3, 9)), [1.0] * 6)
        result = system.publish(origin, 1, [3], [1.0])
        assert result.dropped_item_id == 0
        assert system.replication.holders[0]
        rows = {
            i
            for n in system.network.nodes()
            if n.pointers is not None
            for i in n.pointers.items_by_id()
        }
        assert 0 in rows
