"""Direct tests for the abstract overlay layer (RouteResult, shared helpers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.base import RouteResult
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network

SPACE = KeySpace(1000)


def make_overlay(ids=(100, 300, 500, 700, 900)):
    overlay = TornadoOverlay(SPACE, Network())
    for nid in ids:
        overlay.add_node(nid)
    return overlay


class TestRouteResult:
    def test_hops_and_messages(self):
        r = RouteResult(origin=1, key=5, home=3, path=[1, 2, 3])
        assert r.hops == 2
        assert r.messages == 2

    def test_empty_path(self):
        r = RouteResult(origin=1, key=5, home=None, path=[])
        assert r.hops == 0


class TestMembershipHelpers:
    def test_size_and_alive_size(self):
        ov = make_overlay()
        assert ov.size == 5
        ov.node(100).fail()
        assert ov.size == 5  # registration unchanged
        assert ov.alive_size() == 4

    def test_nodes_in_key_order(self):
        ov = make_overlay((500, 100, 900))
        assert [n.node_id for n in ov.nodes()] == [100, 500, 900]

    def test_add_node_rollback_on_network_conflict(self):
        ov = make_overlay((100,))
        # Register a node directly on the network to force the conflict.
        from repro.sim.node import PeerNode

        ov.network.add_node(PeerNode(555))
        with pytest.raises(ValueError):
            ov.add_node(555)
        assert 555 not in ov.ring  # ring stayed consistent


class TestLiveHome:
    def test_prefers_true_home(self):
        ov = make_overlay()
        assert ov.live_home(310) == 300

    def test_falls_to_nearest_live(self):
        ov = make_overlay()
        ov.node(300).fail()
        assert ov.live_home(310) in (100, 500)
        ov.node(500).fail()
        assert ov.live_home(310) == 100

    def test_none_when_all_dead(self):
        ov = make_overlay()
        for nid in list(ov.ring):
            ov.node(nid).fail()
        assert ov.live_home(310) is None


class TestNeighborHelpers:
    def test_closest_neighbor_skips_dead(self):
        ov = make_overlay()
        ov.node(300).fail()
        assert ov.closest_neighbor(100) == 500 or ov.closest_neighbor(100) == 300
        # 300 is dead → next nearest live is 500 (or wrap candidates).
        assert ov.closest_neighbor(100) != 300

    def test_closest_neighbor_none_when_alone(self):
        ov = make_overlay((100,))
        assert ov.closest_neighbor(100) is None

    def test_replica_homes_count_and_exclusion(self):
        ov = make_overlay()
        homes = ov.replica_homes(500, 3)
        assert len(homes) == 3
        assert 500 not in homes

    def test_replica_homes_exhausts_small_ring(self):
        ov = make_overlay((100, 300))
        assert ov.replica_homes(100, 5) == [300]

    def test_closest_neighbors_wrap_mode(self):
        ov = make_overlay()
        out = list(ov.closest_neighbors(900, wrap=True))
        assert set(out) == {100, 300, 500, 700}
        # 100 is nearest under wrap (distance 200 == 700's; tie upward).
        assert out[0] in (100, 700)


class TestWalkOrderMemo:
    """The memoised walk_order must match the lazy generators it replaced
    and invalidate on every ring-membership change (fail() is NOT a
    membership change — callers filter liveness themselves)."""

    def test_both_matches_closest_neighbors(self):
        ov = make_overlay()
        for nid in (100, 500, 900):
            assert ov.walk_order(nid) == list(
                ov.closest_neighbors(nid, alive_only=False)
            )

    def test_directional_orders(self):
        ov = make_overlay()
        assert ov.walk_order(500, "up") == [700, 900]    # stops at space end
        assert ov.walk_order(500, "down") == [300, 100]  # no wrap-around
        assert ov.walk_order(900, "up") == []
        assert ov.walk_order(100, "down") == []

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            make_overlay().walk_order(100, "sideways")

    def test_cached_instance_returned(self):
        ov = make_overlay()
        assert ov.walk_order(300) is ov.walk_order(300)

    def test_membership_change_invalidates(self):
        ov = make_overlay()
        before = ov.walk_order(100)
        ov.add_node(200)
        after = ov.walk_order(100)
        assert after is not before
        assert 200 in after
        ov.remove_node(200)
        assert 200 not in ov.walk_order(100)

    def test_fail_does_not_invalidate(self):
        ov = make_overlay()
        order = ov.walk_order(100)
        ov.node(300).fail()
        assert ov.walk_order(100) is order  # dead node still listed
        assert 300 in order

    def test_cap_flush_bounds_memory(self):
        ov = make_overlay()
        ov._WALK_ORDER_CAP = 4
        for nid in (100, 300, 500, 700, 900):
            ov.walk_order(nid)
        assert len(ov._walk_orders) <= 4 + 1
        assert ov.walk_order(100) == list(
            ov.closest_neighbors(100, alive_only=False)
        )


class TestLiveHomeIsFirstLivePreference:
    """``live_home`` answers from ``home(key)`` alone when it is alive and
    walks the preference order otherwise; either way it is the first
    live node of that order, for both overlays' orders."""

    masks = st.lists(st.booleans(), min_size=5, max_size=5)
    probes = st.integers(min_value=0, max_value=SPACE.modulus - 1)

    @staticmethod
    def kill(overlay, mask):
        for nid, dead in zip(list(overlay.ring), mask):
            if dead:
                overlay.node(nid).fail()
        return [nid for nid in overlay.ring if overlay.network.is_alive(nid)]

    @given(masks, probes)
    @settings(max_examples=200, deadline=None)
    def test_tornado_nearest_live_ties_to_smaller_id(self, mask, key):
        ov = make_overlay()
        live = self.kill(ov, mask)
        want = min(live, key=lambda n: (SPACE.ring_distance(n, key), n)) if live else None
        assert ov.live_home(key) == want

    @given(masks, probes)
    @settings(max_examples=200, deadline=None)
    def test_chord_first_live_successor(self, mask, key):
        ov = ChordOverlay(SPACE, Network())
        for nid in (100, 300, 500, 700, 900):
            ov.add_node(nid)
        live = self.kill(ov, mask)
        # Successor chain: clockwise from the key, never the nearer predecessor.
        want = min(live, key=lambda n: SPACE.clockwise_distance(key, n)) if live else None
        assert ov.live_home(key) == want

    def test_chord_home_dead_skips_to_next_successor(self):
        ov = ChordOverlay(SPACE, Network())
        for nid in (100, 300, 500):
            ov.add_node(nid)
        ov.node(300).fail()
        assert ov.live_home(290) == 500  # not 100, though 100 is nearer than 500

    def test_empty_rings_keep_their_contracts(self):
        assert ChordOverlay(SPACE, Network()).live_home(5) is None
        with pytest.raises(LookupError):
            TornadoOverlay(SPACE, Network()).live_home(5)
