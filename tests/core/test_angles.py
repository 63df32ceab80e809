"""Unit + property tests for absolute angles (Eq. 1–5)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.angles import (
    RIGHT_ANGLE,
    absolute_angle,
    absolute_angle_from_arrays,
    absolute_angles,
    angle_bounds,
    axis_angles,
)
from repro.vsm.sparse import Corpus, SparseVector

DIM = 16


def vec(mapping, dim=DIM):
    return SparseVector.from_mapping(mapping, dim)


class TestAxisAngles:
    def test_single_axis_vector(self):
        angles = axis_angles(vec({3: 5.0}))
        assert angles.shape == (1,)
        assert angles[0] == pytest.approx(0.0)  # aligned with its axis

    def test_equal_weights(self):
        angles = axis_angles(vec({0: 1.0, 1: 1.0}))
        assert np.allclose(angles, math.acos(1 / math.sqrt(2)))

    def test_zero_vector_empty(self):
        assert axis_angles(vec({})).size == 0


class TestAbsoluteAngle:
    def test_zero_vector_is_right_angle(self):
        assert absolute_angle(vec({})) == RIGHT_ANGLE

    def test_axis_vector_closed_form(self):
        # One nonzero: θ² = ((m−1)(π/2)² + 0)/m.
        theta = absolute_angle(vec({0: 7.0}))
        expect = math.sqrt((DIM - 1) * RIGHT_ANGLE**2 / DIM)
        assert theta == pytest.approx(expect)

    def test_scale_invariant(self):
        a = absolute_angle(vec({1: 1.0, 4: 2.0}))
        b = absolute_angle(vec({1: 10.0, 4: 20.0}))
        assert a == pytest.approx(b)

    def test_permutation_invariant(self):
        # The absolute angle depends on the weight multiset, not which
        # axes carry it — this is exactly why it clusters same-profile
        # items and why it cannot distinguish same-size binary baskets.
        a = absolute_angle(vec({0: 1.0, 1: 2.0}))
        b = absolute_angle(vec({7: 2.0, 12: 1.0}))
        assert a == pytest.approx(b)

    def test_binary_vectors_depend_only_on_nnz(self):
        a = absolute_angle(SparseVector.binary([0, 1, 2], DIM))
        b = absolute_angle(SparseVector.binary([5, 9, 13], DIM))
        assert a == pytest.approx(b)

    def test_monotone_in_sparsity_for_binary(self):
        # More keywords (binary weights) → each ratio 1/√nnz smaller but
        # fewer π/2 zero terms; the net is decreasing θ.
        thetas = [
            absolute_angle(SparseVector.binary(list(range(k)), DIM))
            for k in (1, 2, 4, 8, DIM)
        ]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_from_arrays_matches_vector_path(self):
        v = vec({2: 1.5, 9: 0.5, 11: 3.0})
        assert absolute_angle_from_arrays(v.values, v.dim) == pytest.approx(
            absolute_angle(v)
        )

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError):
            absolute_angle_from_arrays(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            absolute_angle_from_arrays(np.ones(5), 3)

    def test_precomputed_norm_honoured(self):
        vals = np.array([3.0, 4.0])
        a = absolute_angle_from_arrays(vals, DIM)
        b = absolute_angle_from_arrays(vals, DIM, norm=5.0)
        assert a == pytest.approx(b)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=10)
    )
    @settings(max_examples=150)
    def test_bounds_hold(self, weights):
        theta = absolute_angle_from_arrays(np.array(weights), DIM)
        lo, hi = angle_bounds(len(weights), DIM)
        assert lo - 1e-9 <= theta <= hi + 1e-9
        assert 0 <= theta <= RIGHT_ANGLE + 1e-9

    @given(st.integers(1, DIM))
    def test_bounds_ordered(self, nnz):
        lo, hi = angle_bounds(nnz, DIM)
        assert lo <= hi

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            angle_bounds(0, DIM)
        with pytest.raises(ValueError):
            angle_bounds(DIM + 1, DIM)


class TestVectorisedAngles:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(0)
        vectors = []
        for _ in range(50):
            nnz = int(rng.integers(1, 8))
            idx = rng.choice(DIM, size=nnz, replace=False)
            vectors.append(
                SparseVector.from_pairs(
                    zip(idx, rng.uniform(0.1, 5.0, nnz)), DIM
                )
            )
        corpus = Corpus.from_vectors(vectors)
        batch = absolute_angles(corpus)
        for i, v in enumerate(vectors):
            assert batch[i] == pytest.approx(absolute_angle(v), rel=1e-12)

    def test_empty_rows_get_right_angle(self):
        corpus = Corpus.from_baskets([[0], [], [1]], DIM)
        batch = absolute_angles(corpus)
        assert batch[1] == pytest.approx(RIGHT_ANGLE)

    def test_similar_items_have_close_angles(self):
        # The clustering property (§3.1): a small perturbation of one
        # weight moves θ only slightly.
        base = vec({0: 1.0, 1: 2.0, 2: 3.0})
        pert = vec({0: 1.0, 1: 2.05, 2: 3.0})
        far = vec({0: 30.0, 1: 0.1, 2: 0.1})
        d_close = abs(absolute_angle(base) - absolute_angle(pert))
        d_far = abs(absolute_angle(base) - absolute_angle(far))
        assert d_close < d_far
        assert d_close < 1e-3
