"""Unit + property tests for key naming (Eq. 4–6).

``vector_to_key`` — Eq. 5 for one vector, through the scalar angle —
is the oracle the vectorised ``corpus_to_keys`` is checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angles import absolute_angle
from repro.core.naming import CdfEqualizer, Knee, angle_to_key, corpus_to_keys
from repro.overlay.idspace import KeySpace
from repro.vsm.sparse import Corpus, SparseVector

SPACE = KeySpace(10_000)


def vector_to_key(vector: SparseVector, space: KeySpace) -> int:
    """Eq. 5: the angle key of one vector."""
    return angle_to_key(absolute_angle(vector), space)


class TestAngleToKey:
    def test_zero_angle_is_key_zero(self):
        assert angle_to_key(0.0, SPACE) == 0

    def test_pi_clamps_to_top_key(self):
        assert angle_to_key(math.pi, SPACE) == SPACE.modulus - 1

    def test_half_pi_is_half_space(self):
        assert angle_to_key(math.pi / 2, SPACE) == SPACE.modulus // 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            angle_to_key(-0.1, SPACE)
        with pytest.raises(ValueError):
            angle_to_key(3.3, SPACE)

    def test_monotone(self):
        keys = [angle_to_key(t, SPACE) for t in np.linspace(0, math.pi, 100)]
        assert keys == sorted(keys)

    def test_vector_to_key_composes(self):
        v = SparseVector.from_mapping({0: 1.0, 3: 2.0}, 8)
        assert vector_to_key(v, SPACE) == angle_to_key(absolute_angle(v), SPACE)

    def test_corpus_to_keys_matches_scalar(self):
        vs = [
            SparseVector.from_mapping({0: 1.0}, 8),
            SparseVector.from_mapping({1: 2.0, 3: 1.0}, 8),
        ]
        corpus = Corpus.from_vectors(vs)
        keys = corpus_to_keys(corpus, SPACE)
        for i, v in enumerate(vs):
            assert keys[i] == vector_to_key(v, SPACE)


class TestKnee:
    def test_validation(self):
        with pytest.raises(ValueError):
            Knee(1.5, 0)
        with pytest.raises(ValueError):
            Knee(0.5, -1)


def make_equalizer(knees=None):
    if knees is None:
        knees = [
            Knee(0.0, 0),
            Knee(0.8, 1_000),
            Knee(0.9, 5_000),
            Knee(1.0, SPACE.modulus),
        ]
    return CdfEqualizer(knees, SPACE)


class TestCdfEqualizer:
    def test_requires_pinned_endpoints(self):
        with pytest.raises(ValueError):
            CdfEqualizer([Knee(0.1, 0), Knee(1.0, SPACE.modulus)], SPACE)
        with pytest.raises(ValueError):
            CdfEqualizer([Knee(0.0, 0), Knee(1.0, 5_000)], SPACE)

    def test_requires_two_knees(self):
        with pytest.raises(ValueError):
            CdfEqualizer([Knee(0.0, 0)], SPACE)

    def test_non_decreasing_cdf_required(self):
        with pytest.raises(ValueError):
            CdfEqualizer(
                [Knee(0.0, 0), Knee(0.9, 100), Knee(0.5, 200), Knee(1.0, SPACE.modulus)],
                SPACE,
            )

    def test_duplicate_knee_points_collapsed(self):
        # The paper's own knee list repeats (0.079, 2^16); the equalizer
        # must tolerate that instead of dividing by zero.
        eq = CdfEqualizer(
            [
                Knee(0.0, 0),
                Knee(0.5, 100),
                Knee(0.5, 100),
                Knee(1.0, SPACE.modulus),
            ],
            SPACE,
        )
        assert eq.segments == 2
        assert eq.remap(100) == pytest.approx(5_000, abs=1)

    def test_identity_when_knees_linear(self):
        eq = CdfEqualizer([Knee(0.0, 0), Knee(1.0, SPACE.modulus)], SPACE)
        for k in (0, 1234, 9999):
            assert eq.remap(k) == k

    def test_eq6_formula(self):
        eq = make_equalizer()
        # In segment [0, 1000): f(h) = ℜ·(0 + 0.8·h/1000).
        assert eq.remap(500) == int(0.8 * 500 / 1000 * SPACE.modulus)
        # In segment [1000, 5000): f(h) = ℜ·(0.8 + 0.1·(h−1000)/4000).
        assert eq.remap(3000) == int((0.8 + 0.1 * 2000 / 4000) * SPACE.modulus)

    def test_dense_region_expands(self):
        eq = make_equalizer()
        assert eq.density_multiplier(500) == pytest.approx(0.8 * SPACE.modulus / 1000)
        assert eq.density_multiplier(500) > 1
        assert eq.density_multiplier(7000) < 1

    def test_remap_many_matches_scalar(self):
        eq = make_equalizer()
        keys = np.array([0, 1, 500, 999, 1000, 4999, 5000, 9999])
        batch = eq.remap_many(keys)
        for i, k in enumerate(keys):
            assert batch[i] == eq.remap(int(k))

    def test_output_in_space(self):
        eq = make_equalizer()
        out = eq.remap_many(np.arange(0, SPACE.modulus, 37))
        assert out.min() >= 0
        assert out.max() < SPACE.modulus

    @given(st.lists(st.integers(0, SPACE.modulus - 1), min_size=2, max_size=50))
    @settings(max_examples=100)
    def test_monotone_preserves_order(self, keys):
        # The linchpin property: Eq. 6 must never scramble similarity
        # order (§3.4.1).
        eq = make_equalizer()
        keys = sorted(keys)
        out = [eq.remap(k) for k in keys]
        assert out == sorted(out)

    def test_out_of_space_key_rejected(self):
        with pytest.raises(ValueError):
            make_equalizer().remap(SPACE.modulus)

    def test_remap_many_parity_at_segment_boundaries(self):
        # The batch kernel's searchsorted bucketing vs the scalar
        # bisect: the knee points themselves, and their one-off
        # neighbors, are exactly where the two could disagree.
        eq = make_equalizer()
        knee_points = [k.b for k in eq.knees]
        probes = sorted(
            {
                min(max(p + d, 0), SPACE.modulus - 1)
                for p in knee_points
                for d in (-1, 0, 1)
            }
        )
        batch = eq.remap_many(np.array(probes, dtype=np.int64))
        for i, k in enumerate(probes):
            assert batch[i] == eq.remap(k), f"key {k}"

    def test_remap_many_parity_at_wraparound(self):
        # The key-space edges: key 0 and the top key modulus−1 (the
        # ring wrap point) must remap inside the space, identically on
        # both paths, even when the last segment is maximally stretched.
        eq = CdfEqualizer(
            [
                Knee(0.0, 0),
                Knee(0.99, 10),  # last 1% of mass over ~all of the ring
                Knee(1.0, SPACE.modulus),
            ],
            SPACE,
        )
        edges = np.array([0, 1, 9, 10, 11, SPACE.modulus - 2, SPACE.modulus - 1])
        batch = eq.remap_many(edges)
        for i, k in enumerate(edges):
            scalar = eq.remap(int(k))
            assert batch[i] == scalar
            assert 0 <= scalar < SPACE.modulus

    @given(
        st.lists(
            st.integers(1, SPACE.modulus - 1), min_size=1, max_size=6, unique=True
        ),
        st.lists(st.integers(0, SPACE.modulus - 1), min_size=1, max_size=64),
    )
    @settings(max_examples=150)
    def test_remap_many_parity_property(self, interior, keys):
        # Arbitrary knee geometry, arbitrary keys: batch ≡ scalar.
        points = sorted(interior)
        cdf = np.linspace(0.0, 1.0, len(points) + 2)
        knees = (
            [Knee(0.0, 0)]
            + [Knee(float(c), p) for c, p in zip(cdf[1:-1], points)]
            + [Knee(1.0, SPACE.modulus)]
        )
        eq = CdfEqualizer(knees, SPACE)
        batch = eq.remap_many(np.array(keys, dtype=np.int64))
        assert batch.tolist() == [eq.remap(k) for k in keys]
