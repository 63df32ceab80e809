"""Unit tests for publishing and the displacement chain (Fig. 2)."""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.publish import ReplacementPolicy, run_displacement_chain
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network
from repro.sim.node import StoredItem
from repro.vsm.sparse import Corpus, SparseVector

DIM = 32
SPACE = KeySpace(10_000)


def make_system(node_ids, capacity=None, **cfg_kwargs) -> Meteorograph:
    """A hand-placed overlay with no equalizer (keys used literally)."""
    network = Network()
    overlay = TornadoOverlay(SPACE, network)
    cfg = MeteorographConfig(
        scheme=PlacementScheme.NONE, node_capacity=capacity, **cfg_kwargs
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


def make_item(item_id, angle_key, kws=(0,)):
    ids = np.array(sorted(kws), dtype=np.int64)
    return StoredItem(
        item_id=item_id,
        publish_key=angle_key,
        angle_key=angle_key,
        keyword_ids=ids,
        weights=np.ones(ids.size),
    )


class TestDisplacementChain:
    def test_stores_at_home_when_space(self):
        system = make_system([100, 200, 300], capacity=2)
        res = run_displacement_chain(system, 200, make_item(1, 200))
        assert res.success
        assert system.network.node(200).has_item(1)
        assert res.displacement_hops == 0

    def test_full_home_displaces_to_nearest_neighbor(self):
        system = make_system([100, 200, 300], capacity=1)
        system.store_at(200, make_item(1, 250))  # farther from incoming
        res = run_displacement_chain(system, 200, make_item(2, 200))
        assert res.success
        assert system.network.node(200).has_item(2)
        # Item 1 (angle 250) displaced to the nearest neighbor of 200.
        holders = [n.node_id for n in system.network.nodes() if n.has_item(1)]
        assert holders == [100] or holders == [300]
        assert res.displacement_hops == 1
        assert system.network.sink.count("displace") == 1

    def test_angle_policy_displaces_farthest_extreme(self):
        system = make_system([100, 200, 300], capacity=2)
        system.store_at(200, make_item(1, 190))
        system.store_at(200, make_item(2, 260))
        res = run_displacement_chain(
            system, 200, make_item(3, 200), policy=ReplacementPolicy.ANGLE
        )
        assert res.success
        # Incoming key 200: extremes are 190 (d=10) and 260 (d=60) → 2 out.
        assert system.network.node(200).has_item(1)
        assert system.network.node(200).has_item(3)
        assert not system.network.node(200).has_item(2)

    def test_angle_policy_can_reject_incoming(self):
        system = make_system([100, 200, 300], capacity=2)
        system.store_at(200, make_item(1, 200))
        system.store_at(200, make_item(2, 205))
        incoming = make_item(3, 900)  # farther than both extremes from itself? no:
        # distances from incoming key 900: item1 700, item2 695, incoming 0.
        # max distance → item 1 displaced, incoming stored.
        res = run_displacement_chain(system, 200, incoming)
        assert res.success
        assert system.network.node(200).has_item(3)

    def test_cosine_policy_displaces_least_similar(self):
        system = make_system([100, 200, 300], capacity=2)
        system.store_at(200, make_item(1, 200, kws=(0, 1)))
        system.store_at(200, make_item(2, 200, kws=(9,)))
        res = run_displacement_chain(
            system, 200, make_item(3, 200, kws=(0, 1, 2)),
            policy=ReplacementPolicy.COSINE,
        )
        assert res.success
        assert system.network.node(200).has_item(1)  # shares keywords
        assert not system.network.node(200).has_item(2)  # disjoint → victim

    def test_chain_cascades_through_full_nodes(self):
        system = make_system([100, 200, 300, 400], capacity=1)
        for nid, key in ((100, 150), (200, 210), (300, 310)):
            system.store_at(nid, make_item(nid, key))
        res = run_displacement_chain(system, 200, make_item(1, 200))
        assert res.success
        # Everyone stays at capacity; node 400 (the only free node) now holds something.
        assert len(system.network.node(400)) == 1
        assert system.network.total_items() == 4

    def test_hop_budget_zero_fails_on_full_home(self):
        system = make_system([100, 200], capacity=1)
        system.store_at(200, make_item(1, 200))
        res = run_displacement_chain(system, 200, make_item(2, 200), hop_budget=0)
        assert not res.success
        assert res.dropped_item_id == 2
        assert not system.network.node(200).has_item(2)

    def test_hop_budget_exhaustion_drops_chain_tail(self):
        system = make_system([100, 200, 300], capacity=1)
        for nid in (100, 200, 300):
            system.store_at(nid, make_item(nid, nid))
        res = run_displacement_chain(system, 200, make_item(1, 200), hop_budget=1)
        assert not res.success
        assert res.dropped_item_id is not None
        assert system.network.total_items() == 3  # conservation minus the drop

    def test_overlay_exhaustion_fails(self):
        system = make_system([100], capacity=1)
        system.store_at(100, make_item(1, 100))
        res = run_displacement_chain(system, 100, make_item(2, 100))
        assert not res.success

    def test_budget_zero_swaps_then_drops_victim(self):
        # Fig. 2 order is swap-then-forward: when the budget expires at a
        # full node whose least-similar item is NOT the incoming one, the
        # terminal node still swaps — the incoming item is stored and the
        # displaced *victim* is what drops (the PublishResult contract).
        system = make_system([100, 200], capacity=1)
        system.store_at(200, make_item(1, 900))  # far from incoming → victim
        res = run_displacement_chain(system, 200, make_item(2, 200), hop_budget=0)
        assert not res.success
        assert res.dropped_item_id == 1
        assert system.network.node(200).has_item(2)
        assert not system.network.node(200).has_item(1)

    def test_overlay_exhaustion_swaps_at_terminal_node(self):
        # A chain that runs out of overlay behaves the same way: every
        # visited full node swaps, and the final victim is the drop.
        system = make_system([100, 200], capacity=1)
        system.store_at(200, make_item(1, 900))
        system.store_at(100, make_item(3, 100))
        res = run_displacement_chain(system, 200, make_item(2, 200))
        assert not res.success
        # 200 swapped 1 out for the incoming 2; 100 swapped 3 out for 1;
        # no node is left for 3, so 3 is the chain's dropped tail.
        assert system.network.node(200).has_item(2)
        assert system.network.node(100).has_item(1)
        assert res.dropped_item_id == 3
        assert res.displacement_hops == 1
        assert system.network.total_items() == 2

    def test_item_conservation_no_budget(self):
        system = make_system(list(range(100, 1100, 100)), capacity=2)
        rng = np.random.default_rng(0)
        for i in range(18):
            key = int(rng.integers(0, SPACE.modulus))
            home = system.overlay.home(key)
            run_displacement_chain(system, home, make_item(i, key))
        assert system.network.total_items() == 18


class TestPublishItem:
    def test_publish_routes_and_registers(self, rng):
        system = make_system(list(range(0, 10_000, 500)))
        res = system.publish(0, 7, [1, 2, 3], [1.0, 1.0, 1.0])
        assert res.success
        assert system.published_count == 1
        key = system.published_key_of(7)
        assert system.network.node(system.overlay.home(key)).has_item(7)

    def test_publish_charges_route_messages(self):
        system = make_system(list(range(0, 10_000, 500)))
        before = system.network.sink.count("publish")
        res = system.publish(0, 1, [5], [2.0])
        assert system.network.sink.count("publish") - before == res.route_hops


@pytest.mark.parametrize("engine", ["chain", "cascade"])
def test_republish_onto_a_full_home_replaces_in_place(engine):
    """A full node that holds the incoming id replaces that copy: it
    picks no victim and sends no ``displace`` message, in both the
    per-item chain and the batch cascade."""
    dim = 4  # low enough for a second row to home on another node
    config = MeteorographConfig(
        scheme=PlacementScheme.NONE, node_capacity=2, hop_budget=0
    )
    rng = np.random.default_rng(0)
    system = Meteorograph.build(8, dim, rng=rng, config=config)
    origin = system.random_origin(rng)
    system.publish(origin, 0, [3], [1.0])
    system.publish(origin, 1, [2, 3], [0.3, 1.0])
    home = system.overlay.home(system.published_key_of(0))
    assert sorted(system.network.node(home).item_ids()) == [0, 1]
    before = system.network.sink.count("displace")
    if engine == "chain":
        result = system.publish(origin, 0, [3], [1.0])
    else:
        # A second row homed elsewhere makes the batch shared; the full
        # home sends it through the cascade.
        corpus = Corpus.from_vectors(
            [
                SparseVector.from_mapping({3: 1.0}, dim),
                SparseVector.from_mapping(dict.fromkeys(range(dim), 1.0), dim),
            ]
        )
        assert system.overlay.home(system.corpus_keys_multi(corpus)[1][1, 0]) != home
        result = system.publish_corpus(corpus, rng, item_ids=[0, 9], origin=origin)[0]
    assert result.success and result.displacement_hops == 0
    assert system.network.sink.count("displace") == before
    assert sorted(system.network.node(home).item_ids()) == [0, 1]
