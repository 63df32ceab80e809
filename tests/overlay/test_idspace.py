"""Unit + property tests for key space arithmetic and the sorted ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.idspace import KeySpace, SortedKeyRing

SPACE = KeySpace(1000)
keys_st = st.integers(min_value=0, max_value=999)


class TestKeySpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            KeySpace(1)
        with pytest.raises(ValueError):
            SPACE.validate(1000)
        with pytest.raises(ValueError):
            SPACE.validate(-1)
        assert SPACE.validate(0) == 0

    def test_wrap(self):
        assert SPACE.wrap(1005) == 5
        assert SPACE.wrap(-1) == 999

    def test_linear_distance(self):
        assert SPACE.linear_distance(10, 990) == 980

    def test_ring_distance_wraps(self):
        assert SPACE.ring_distance(10, 990) == 20
        assert SPACE.ring_distance(0, 500) == 500
        assert SPACE.ring_distance(5, 5) == 0

    def test_clockwise_distance(self):
        assert SPACE.clockwise_distance(990, 10) == 20
        assert SPACE.clockwise_distance(10, 990) == 980

    def test_in_half_open(self):
        assert SPACE.in_half_open(5, 0, 10)
        assert SPACE.in_half_open(10, 0, 10)
        assert not SPACE.in_half_open(0, 0, 10)
        # wrapping interval (990, 10]
        assert SPACE.in_half_open(5, 990, 10)
        assert SPACE.in_half_open(995, 990, 10)
        assert not SPACE.in_half_open(500, 990, 10)
        # degenerate = full circle
        assert SPACE.in_half_open(123, 7, 7)

    def test_midpoint(self):
        assert SPACE.midpoint(0, 10) == 5
        assert SPACE.midpoint(990, 10) == 0

    def test_fraction_round_trip(self):
        assert SPACE.fraction_to_key(0.5) == 500
        assert SPACE.fraction_to_key(1.0) == 999  # clamped
        assert SPACE.key_to_fraction(500) == 0.5

    def test_array_distances_match_scalar(self):
        keys = np.array([0, 250, 750, 999])
        ring = SPACE.ring_distances(keys, 10)
        lin = SPACE.linear_distances(keys, 10)
        for i, k in enumerate(keys):
            assert ring[i] == SPACE.ring_distance(int(k), 10)
            assert lin[i] == SPACE.linear_distance(int(k), 10)

    def test_random_keys_in_range(self):
        rng = np.random.default_rng(0)
        ks = SPACE.random_keys(rng, 1000)
        assert ks.min() >= 0 and ks.max() < 1000

    def test_random_key_large_modulus(self):
        big = KeySpace(1 << 130)
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = big.random_key(rng)
            assert 0 <= k < big.modulus

    @given(a=keys_st, b=keys_st)
    def test_ring_distance_symmetric_and_bounded(self, a, b):
        d = SPACE.ring_distance(a, b)
        assert d == SPACE.ring_distance(b, a)
        assert 0 <= d <= 500

    @given(a=keys_st, b=keys_st, c=keys_st)
    def test_ring_distance_triangle(self, a, b, c):
        assert SPACE.ring_distance(a, c) <= SPACE.ring_distance(a, b) + SPACE.ring_distance(b, c)


class TestSortedKeyRing:
    def test_add_discard_contains(self):
        ring = SortedKeyRing(SPACE, [5, 100])
        assert 5 in ring and 100 in ring and 50 not in ring
        ring.add(50)
        assert 50 in ring
        with pytest.raises(ValueError):
            ring.add(50)
        assert ring.discard(50)
        assert not ring.discard(50)

    def test_successor_predecessor_wrap(self):
        ring = SortedKeyRing(SPACE, [100, 500, 900])
        assert ring.successor(100) == 100
        assert ring.successor(101) == 500
        assert ring.successor(950) == 100  # wraps
        assert ring.predecessor(100) == 900  # wraps
        assert ring.predecessor(500) == 100

    def test_empty_ring_raises(self):
        ring = SortedKeyRing(SPACE)
        with pytest.raises(LookupError):
            ring.successor(1)
        with pytest.raises(LookupError):
            ring.closest(1)

    def test_closest_ring_metric(self):
        ring = SortedKeyRing(SPACE, [100, 900])
        assert ring.closest(950) == 900
        assert ring.closest(10) == 100  # dist 90 beats wrap dist 110
        assert ring.closest(990) == 900  # wrap dist 90 beats 110
        assert ring.closest(400) == 100

    def test_closest_tie_breaks_low(self):
        ring = SortedKeyRing(SPACE, [100, 200])
        assert ring.closest(150) == 100

    def test_closest_linear_does_not_wrap(self):
        ring = SortedKeyRing(SPACE, [100, 900])
        assert ring.closest_linear(10) == 100  # linear: 90 vs 890

    def test_rank_and_at(self):
        ring = SortedKeyRing(SPACE, [5, 50, 500])
        assert ring.rank(50) == 1
        assert ring.at(0) == 5
        assert ring.at(-1) == 500
        with pytest.raises(KeyError):
            ring.rank(51)

    def test_range_count(self):
        ring = SortedKeyRing(SPACE, [10, 20, 30, 40])
        assert ring.range_count(15, 35) == 2
        assert ring.range_count(10, 41) == 4
        assert ring.range_count(41, 999) == 0

    def test_as_array_sorted(self):
        ring = SortedKeyRing(SPACE, [30, 10, 20])
        assert list(ring.as_array()) == [10, 20, 30]

    def test_neighbors_outward_linear_order(self):
        ring = SortedKeyRing(SPACE, [10, 40, 50, 80])
        out = list(ring.neighbors_outward(45))
        # Distances: 40→5, 50→5, 10→35, 80→35; ties yield the upper side first.
        assert out == [50, 40, 80, 10]

    def test_neighbors_outward_excludes_self(self):
        ring = SortedKeyRing(SPACE, [10, 40, 80])
        out = list(ring.neighbors_outward(40))
        assert 40 not in out
        assert set(out) == {10, 80}

    def test_neighbors_outward_wrap_covers_all(self):
        ring = SortedKeyRing(SPACE, [10, 300, 600, 950])
        out = list(ring.neighbors_outward(980, wrap=True))
        assert sorted(out) == [10, 300, 600, 950]
        # nearest under wrap is 10 (dist 30), then 950 (dist 30 tie) ...
        assert set(out[:2]) == {10, 950}

    @given(st.sets(keys_st, min_size=1, max_size=30), keys_st)
    @settings(max_examples=200)
    def test_closest_matches_bruteforce(self, members, probe):
        ring = SortedKeyRing(SPACE, members)
        best = ring.closest(probe)
        brute = min(members, key=lambda k: (SPACE.ring_distance(k, probe), k))
        assert SPACE.ring_distance(best, probe) == SPACE.ring_distance(brute, probe)

    @given(st.sets(keys_st, min_size=1, max_size=20), keys_st)
    @settings(max_examples=200)
    def test_neighbors_outward_is_sorted_by_distance(self, members, probe):
        ring = SortedKeyRing(SPACE, members)
        dists = [abs(k - probe) for k in ring.neighbors_outward(probe)]
        assert dists == sorted(dists)
        expected = len(members) - (1 if probe in members else 0)
        assert len(dists) == expected

    @given(st.sets(keys_st, min_size=2, max_size=20), keys_st)
    @settings(max_examples=200)
    def test_successor_predecessor_adjacent(self, members, probe):
        ring = SortedKeyRing(SPACE, members)
        succ = ring.successor(probe)
        # No member lies strictly between probe and its successor.
        for m in members:
            if m != succ:
                assert not (probe <= m < succ) or succ < probe


class TestClosestEdges:
    """``SortedKeyRing.closest`` is one bisect; pin it to the brute-force
    arg-min of ``(ring_distance, id)`` at the numeric edges."""

    @staticmethod
    def brute(space, members, probe):
        return min(members, key=lambda k: (space.ring_distance(k, probe), k))

    def test_singleton_answers_every_probe(self):
        ring = SortedKeyRing(SPACE, [400])
        assert [ring.closest(p) for p in (0, 399, 400, 401, 999)] == [400] * 5

    def test_probe_below_first_and_above_last_wrap(self):
        ring = SortedKeyRing(SPACE, [100, 500, 950])
        assert ring.closest(0) == 950  # wrap 50 beats 100
        assert ring.closest(30) == 100  # 70 beats wrap 80
        assert ring.closest(999) == 950
        assert ring.closest(980) == 950  # 30 beats wrap 120

    def test_equidistant_pair_resolves_to_smaller_id(self):
        ring = SortedKeyRing(SPACE, [100, 300, 900])
        assert ring.closest(200) == 100
        assert ring.closest(0) == 100  # 100 vs 900 across the wrap
        assert SortedKeyRing(SPACE, [250, 750]).closest(0) == 250
        assert SortedKeyRing(SPACE, [250, 750]).closest(500) == 250

    def test_probe_equal_to_member(self):
        ring = SortedKeyRing(SPACE, [0, 100, 999])
        assert [ring.closest(p) for p in (0, 100, 999)] == [0, 100, 999]

    @given(
        st.sampled_from([2, 7, 1000, 1 << 16, 10**8]),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_closest_is_the_bruteforce_argmin(self, modulus, data):
        space = KeySpace(modulus)
        key_st = st.integers(min_value=0, max_value=modulus - 1)
        members = sorted(data.draw(st.sets(key_st, min_size=1, max_size=12)))
        ring = SortedKeyRing(space, members)
        probes = {0, modulus - 1, data.draw(key_st)}
        for a, b in zip(members, members[1:] + members[:1]):
            gap = (b - a) % modulus
            probes.update(
                k % modulus for k in (a - 1, a, a + 1, a + gap // 2, a + -(-gap // 2))
            )
        for probe in probes:
            assert ring.closest(probe) == self.brute(space, members, probe), probe
