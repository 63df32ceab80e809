"""Unit tests for the physical topology / latency model."""

import numpy as np
import pytest
from latency_plane import EuclideanPlane

from repro.sim.topology import LatencyMap, TransitStubLike, path_latency


class TestLatencyMap:
    def test_place_and_latency(self):
        m = LatencyMap()
        m.place(1, (0.0, 0.0))
        m.place(2, (3.0, 4.0))
        assert m.latency(1, 2) == pytest.approx(5.0)
        assert m.latency(2, 1) == pytest.approx(5.0)  # symmetric
        assert m.latency(1, 1) == 0.0

    def test_missing_node(self):
        m = LatencyMap()
        m.place(1, (0, 0))
        with pytest.raises(KeyError):
            m.latency(1, 99)

    def test_contains_len(self):
        m = LatencyMap()
        m.place(1, (0, 0))
        assert 1 in m and 2 not in m
        assert len(m) == 1

    def test_nearest(self):
        m = LatencyMap()
        m.place(0, (0, 0))
        m.place(1, (10, 0))
        m.place(2, (1, 0))
        m.place(3, (1, 0))  # tie with 2
        assert m.nearest(0, [1, 2]) == 2
        assert m.nearest(0, [2, 3]) == 2  # tie → smaller id
        assert m.nearest(0, []) is None


class TestEuclideanPlane:
    def test_random_placement_in_bounds(self):
        plane = EuclideanPlane(side=50.0)
        plane.place_random(list(range(100)), np.random.default_rng(0))
        for nid in range(100):
            c = plane.coordinate(nid)
            assert 0 <= c[0] <= 50 and 0 <= c[1] <= 50

    def test_validation(self):
        with pytest.raises(ValueError):
            EuclideanPlane(side=0)


class TestTransitStub:
    def test_bimodal_latencies(self):
        topo = TransitStubLike(side=100.0, n_domains=5, domain_radius=2.0)
        rng = np.random.default_rng(1)
        ids = list(range(200))
        topo.place_random(ids, rng)
        intra, inter = [], []
        for a in range(0, 200, 7):
            for b in range(1, 200, 13):
                if a == b:
                    continue
                d = topo.latency(a, b)
                if topo.domain_of[a] == topo.domain_of[b]:
                    intra.append(d)
                else:
                    inter.append(d)
        assert np.mean(intra) < np.mean(inter) / 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitStubLike(n_domains=0)
        with pytest.raises(ValueError):
            TransitStubLike(side=10, domain_radius=10)


class TestPathLatency:
    def test_sums_pairwise(self):
        m = LatencyMap()
        m.place(1, (0, 0))
        m.place(2, (3, 4))
        m.place(3, (3, 0))
        assert path_latency(m, [1, 2, 3]) == pytest.approx(5.0 + 4.0)

    def test_trivial_paths(self):
        m = LatencyMap()
        m.place(1, (0, 0))
        assert path_latency(m, [1]) == 0.0
        assert path_latency(m, []) == 0.0


class TestProximityRouting:
    def test_proximity_reduces_stretch(self):
        from repro.experiments.proximity import run_proximity

        rs = run_proximity(n_nodes=200, queries=150, seed=7)
        by_mode = {row[0]: row for row in rs.rows}
        plain = by_mode["prefix-first"]
        prox = by_mode["proximity-aware"]
        assert prox[2] < plain[2]  # mean stretch improves
        assert prox[1] < plain[1] * 1.5  # hops essentially unchanged

    def test_proximity_overlay_still_routes_correctly(self):
        from repro.overlay.idspace import KeySpace
        from repro.overlay.tornado import TornadoOverlay
        from repro.sim.network import Network

        rng = np.random.default_rng(3)
        space = KeySpace(1 << 16)
        topo = EuclideanPlane()
        ids = sorted(set(int(rng.integers(0, space.modulus)) for _ in range(150)))
        topo.place_random(ids, rng)
        overlay = TornadoOverlay(space, Network(), latency_map=topo)
        for nid in ids:
            overlay.add_node(nid)
        for _ in range(50):
            key = int(rng.integers(0, space.modulus))
            origin = ids[int(rng.integers(0, len(ids)))]
            res = overlay.route(origin, key)
            assert res.home == overlay.home(key)
