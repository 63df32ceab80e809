"""Unit + property tests for the Tornado-style overlay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network


def make_overlay(node_ids, modulus=1 << 16, **kwargs) -> TornadoOverlay:
    space = KeySpace(modulus)
    overlay = TornadoOverlay(space, Network(), **kwargs)
    for nid in node_ids:
        overlay.add_node(nid)
    return overlay


def random_overlay(n, seed=0, modulus=1 << 16, **kwargs):
    rng = np.random.default_rng(seed)
    ids = set()
    while len(ids) < n:
        ids.add(int(rng.integers(0, modulus)))
    return make_overlay(sorted(ids), modulus=modulus, **kwargs), rng


class TestMembership:
    def test_add_and_size(self):
        ov = make_overlay([10, 20, 30])
        assert ov.size == 3
        assert [n.node_id for n in ov.nodes()] == [10, 20, 30]

    def test_duplicate_rejected_consistently(self):
        ov = make_overlay([10])
        with pytest.raises(ValueError):
            ov.add_node(10)
        assert ov.size == 1  # ring not corrupted

    def test_remove(self):
        ov = make_overlay([10, 20])
        ov.remove_node(10)
        assert ov.size == 1
        assert 10 not in ov.network


class TestHome:
    def test_home_is_ring_closest(self):
        ov = make_overlay([100, 200, 60000])
        assert ov.home(120) == 100
        assert ov.home(180) == 200
        assert ov.home(10) == 60000 or ov.home(10) == 100
        # wrap: dist(10, 60000) = 5546 vs dist(10,100)=90 -> 100
        assert ov.home(10) == 100

    def test_live_home_skips_dead(self):
        ov = make_overlay([100, 200, 300])
        ov.node(100).fail()
        assert ov.live_home(90) == 200
        ov.node(200).fail()
        assert ov.live_home(90) == 300
        ov.node(300).fail()
        assert ov.live_home(90) is None


class TestLeafSet:
    def test_leaf_set_covers_both_sides(self):
        ov = make_overlay([10, 20, 30, 40, 50], leaf_set_size=2)
        ls = ov.leaf_set(30)
        assert set(ls) == {10, 20, 40, 50}

    def test_leaf_set_small_ring(self):
        ov = make_overlay([10, 20], leaf_set_size=4)
        assert set(ov.leaf_set(10)) == {20}

    def test_singleton_has_empty_leaf_set(self):
        ov = make_overlay([10])
        assert ov.leaf_set(10) == []


class TestRouting:
    def test_route_reaches_home(self):
        ov, rng = random_overlay(200, seed=1)
        for _ in range(100):
            key = int(rng.integers(0, ov.space.modulus))
            origin = ov.ring.at(int(rng.integers(0, ov.size)))
            res = ov.route(origin, key)
            assert res.home == ov.home(key)
            assert res.succeeded
            assert res.path[0] == origin
            assert res.path[-1] == res.home

    def test_route_charges_one_message_per_hop(self):
        ov, rng = random_overlay(100, seed=2)
        before = ov.network.sink.count("route")
        res = ov.route(ov.ring.at(0), 1234)
        assert ov.network.sink.count("route") - before == res.hops

    def test_route_from_home_is_zero_hops(self):
        ov, _ = random_overlay(50, seed=3)
        key = 777
        home = ov.home(key)
        res = ov.route(home, key)
        assert res.hops == 0

    def test_route_is_logarithmic(self):
        ov, rng = random_overlay(512, seed=4, digit_bits=2)
        hops = []
        for _ in range(200):
            key = int(rng.integers(0, ov.space.modulus))
            origin = ov.ring.at(int(rng.integers(0, ov.size)))
            hops.append(ov.route(origin, key).hops)
        # log4(512) = 4.5; allow generous headroom but far below N.
        assert np.mean(hops) < 3 * math.log(512, 4)
        assert max(hops) < 30

    def test_route_detours_around_dead_nodes(self):
        ov, rng = random_overlay(100, seed=5)
        key = int(rng.integers(0, ov.space.modulus))
        home = ov.home(key)
        ov.node(home).fail()
        origin = next(nid for nid in ov.ring if nid != home)
        res = ov.route(origin, key)
        assert res.home != home
        assert res.home == ov.live_home(key)
        assert res.succeeded

    def test_route_from_dead_origin_rejected(self):
        ov = make_overlay([10, 20])
        ov.node(10).fail()
        from repro.overlay.base import RoutingError

        with pytest.raises(RoutingError):
            ov.route(10, 15)

    def test_route_unknown_origin_rejected(self):
        ov = make_overlay([10, 20])
        with pytest.raises(KeyError):
            ov.route(999, 15)

    def test_max_hops_enforced(self):
        ov, _ = random_overlay(200, seed=6)
        res = ov.route(ov.ring.at(0), 60000, max_hops=0)
        if res.home != ov.home(60000):
            assert not res.succeeded

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    @settings(max_examples=50, deadline=None)
    def test_route_terminates_at_global_minimum(self, key):
        ov, _ = random_overlay(64, seed=7)
        res = ov.route(ov.ring.at(0), key)
        assert res.home == ov.home(key)


class TestStabilize:
    def test_stabilize_rebuilds_over_live_nodes(self):
        ov, rng = random_overlay(100, seed=8)
        dead = [ov.ring.at(i) for i in range(0, 100, 2)]
        ov.network.fail_nodes(dead)
        ov.stabilize()
        for _ in range(30):
            key = int(rng.integers(0, ov.space.modulus))
            origin = ov.ring.at(1)  # odd index: alive
            if not ov.network.is_alive(origin):
                continue
            res = ov.route(origin, key)
            assert res.home == ov.live_home(key)
            assert res.succeeded

    def test_membership_change_resets_view(self):
        ov, _ = random_overlay(20, seed=9)
        ov.network.fail_nodes([ov.ring.at(0)])
        ov.stabilize()
        ov.add_node(12345 if 12345 not in ov.ring else 12346)
        # After a registration the full ring is the view again.
        assert ov._view is ov.ring


    def test_join_after_stabilize_matches_fresh_build(self):
        """Incremental change == overall change: after fail → stabilize →
        recover → join, every row and compiled ring is what a freshly
        built overlay over the same membership and liveness derives (a
        table bound to the pre-join live-only view must not survive)."""
        ov, rng = random_overlay(40, seed=12)
        ids = list(ov.ring)
        dead = ids[::3]
        keys = [int(k) for k in rng.integers(0, ov.space.modulus, size=60)]
        for key in keys:  # warm tables and rings over the full view
            ov.route(ids[1], key)
        ov.network.fail_nodes(dead)
        ov.stabilize()
        for key in keys:  # ... and over the live-only view
            ov.route(ids[1], key)
        ov.network.recover_node(dead[0])
        joined = next(k for k in range(ov.space.modulus) if k not in ov.ring)
        ov.add_node(joined)

        fresh = make_overlay(sorted(ids + [joined]))
        fresh.network.fail_nodes(dead[1:])
        for nid in fresh.ring:
            for r in range(ov.codec.num_digits):
                assert ov._table(nid).row(r) == fresh._table(nid).row(r), (nid, r)
            for r in range(ov.codec.num_digits + 1):
                assert ov._compile_ring(nid, r) == fresh._compile_ring(nid, r), (nid, r)
        for key in keys + [joined, dead[0]]:
            got, want = ov.route(ids[1], key), fresh.route(ids[1], key)
            assert (got.path, got.succeeded) == (want.path, want.succeeded)


class TestEpochCache:
    """The membership epoch invalidates memoised leaf sets (ROADMAP's
    route-kernel target: leaf sets are built once per epoch, not per hop)."""

    def test_leaf_set_is_memoised_within_an_epoch(self):
        ov = make_overlay([10, 20, 30, 50, 90])
        first = ov.leaf_set(30)
        assert ov.leaf_set(30) is first  # cache hit: same object back

    def test_join_bumps_epoch_and_busts_cache(self):
        ov = make_overlay([10, 20, 30, 50, 90])
        before = ov.leaf_set(30)
        epoch = ov.membership_epoch
        ov.add_node(40)
        assert ov.membership_epoch == epoch + 1
        after = ov.leaf_set(30)
        assert after is not before
        assert 40 in after

    def test_remove_bumps_epoch_and_busts_cache(self):
        ov = make_overlay([10, 20, 30, 50, 90])
        before = ov.leaf_set(30)
        epoch = ov.membership_epoch
        ov.remove_node(50)
        assert ov.membership_epoch == epoch + 1
        after = ov.leaf_set(30)
        assert after is not before
        assert 50 not in after

    def test_fail_plus_stabilize_busts_cache(self):
        # A plain fail() does not notify the overlay (stale-table
        # semantics: routing detours around the corpse) — the epoch
        # moves when stabilize() repairs the membership view.
        ov = make_overlay([10, 20, 30, 50, 90])
        before = ov.leaf_set(30)
        epoch = ov.membership_epoch
        ov.network.fail_nodes([50])
        assert ov.membership_epoch == epoch
        ov.stabilize()
        assert ov.membership_epoch == epoch + 1
        after = ov.leaf_set(30)
        assert after is not before
        assert 50 not in after  # live-only view excludes the failed node

    def test_epoch_is_monotone(self):
        ov = make_overlay([10, 20, 30])
        seen = [ov.membership_epoch]
        ov.add_node(40)
        seen.append(ov.membership_epoch)
        ov.stabilize()
        seen.append(ov.membership_epoch)
        ov.remove_node(40)
        seen.append(ov.membership_epoch)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_routes_stay_correct_across_epochs(self):
        ov, rng = random_overlay(60, seed=11)
        for _ in range(10):  # warm caches
            ov.route(ov.ring.at(0), int(rng.integers(0, ov.space.modulus)))
        new_id = 777 if 777 not in ov.ring else 778
        ov.add_node(new_id)
        # The new node must be routable-to immediately (no stale cache).
        res = ov.route(ov.ring.at(0), new_id)
        assert res.home == new_id


class TestCompiledRingCounters:
    """``routing.rings_compiled`` / ``routing.dead_argmin_scans`` (obs on):
    a warm all-alive overlay compiles nothing and never leaves the fast
    path; stale tables after ``fail()`` announce every scan they cost."""

    def test_warm_pass_is_silent_and_stale_pass_announces_itself(self):
        obs = Observability()
        space = KeySpace(1 << 16)
        ov = TornadoOverlay(space, Network(obs=obs))
        rng = np.random.default_rng(13)
        ov.add_nodes((int(k), None) for k in set(rng.integers(0, space.modulus, size=120)))
        ids = list(ov.ring)
        pairs = [
            (ids[int(rng.integers(0, len(ids)))], int(rng.integers(0, space.modulus)))
            for _ in range(200)
        ]
        counters = obs.metrics.counters

        def run_pass():
            return [ov.route(o, k).path for o, k in pairs if ov.network.is_alive(o)]

        first = run_pass()
        compiled = counters["routing.rings_compiled"]
        assert compiled == sum(len(rows) for rows in ov._rings) > 0
        assert "routing.dead_argmin_scans" not in counters
        assert run_pass() == first
        assert counters["routing.rings_compiled"] == compiled
        assert "routing.dead_argmin_scans" not in counters

        ov.network.fail_nodes(ids[::4])  # no stabilize(): tables go stale
        run_pass()
        assert counters["routing.dead_argmin_scans"] > 0
        ov.stabilize()
        scans = counters["routing.dead_argmin_scans"]
        run_pass()  # a stabilized view holds no dead member to trip over
        assert counters["routing.dead_argmin_scans"] == scans
        assert counters["routing.rings_compiled"] > compiled


class TestNeighborOrder:
    def test_closest_neighbors_linear(self):
        ov = make_overlay([10, 20, 30, 50, 90])
        out = list(ov.closest_neighbors(30))
        # Distances from 30: 20→10, 10→20, 50→20 (tie upward first), 90→60.
        assert out == [20, 50, 10, 90]

    def test_closest_neighbors_skips_dead(self):
        ov = make_overlay([10, 20, 30])
        ov.node(20).fail()
        assert list(ov.closest_neighbors(10)) == [30]

    def test_replica_homes(self):
        ov = make_overlay([10, 20, 30, 40])
        homes = ov.replica_homes(20, 2)
        assert len(homes) == 2
        assert 20 not in homes
