"""Unit tests for knee fitting and the Eq. 6 equalization pipeline.

The paper's own remap — the five knees §3.4.1 quotes for its trace over
ℜ = 10⁸ — is kept here as the reference the equalizer must replay.
"""

import numpy as np
import pytest

from repro.core.knees import empirical_cdf, equalizer_from_sample, fit_knees
from repro.core.naming import CdfEqualizer, Knee
from repro.overlay.idspace import KeySpace, PAPER_MODULUS

SPACE = KeySpace(100_000)

#: §3.4.1: "five points of knees are selected" for the paper's trace
#: (the text lists (0.079, 2^16) twice; the duplicate is dropped).
PAPER_REMAP_KNEES: tuple[Knee, ...] = (
    Knee(0.0, 0),
    Knee(0.079, 2**16),
    Knee(0.75, 2**18),
    Knee(0.957, 2**20),
    Knee(1.0, PAPER_MODULUS),
)


def paper_equalizer() -> CdfEqualizer:
    """The paper's exact Eq.-6 remap (requires the ℜ = 10⁸ key space)."""
    return CdfEqualizer(PAPER_REMAP_KNEES, KeySpace(PAPER_MODULUS))


def paper_equalizer() -> CdfEqualizer:
    """The paper's exact Eq.-6 remap (requires the ℜ = 10⁸ key space)."""
    return CdfEqualizer(PAPER_REMAP_KNEES, KeySpace(PAPER_MODULUS))


def skewed_sample(n=5000, seed=0):
    """80% of keys in a 2%-wide band, 20% uniform — a Fig. 3 shape."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(49_000, 51_000, size=int(n * 0.8))
    sparse = rng.integers(0, SPACE.modulus, size=n - dense.size)
    return np.concatenate([dense, sparse])


class TestEmpiricalCdf:
    def test_sorted_and_normalised(self):
        keys, frac = empirical_cdf([5, 1, 3], SPACE)
        assert list(keys) == [1, 3, 5]
        assert frac[-1] == pytest.approx(1.0)
        assert np.all(np.diff(frac) > 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([], SPACE)

    def test_out_of_space_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([SPACE.modulus], SPACE)


class TestFitKnees:
    def test_endpoints_pinned(self):
        knees = fit_knees(skewed_sample(), SPACE)
        assert knees[0].a == 0.0 and knees[0].b == 0
        assert knees[-1].a == 1.0 and knees[-1].b == SPACE.modulus

    def test_monotone(self):
        knees = fit_knees(skewed_sample(), SPACE)
        for p, c in zip(knees, knees[1:]):
            assert c.b > p.b
            assert c.a >= p.a

    def test_respects_budget(self):
        assert len(fit_knees(skewed_sample(), SPACE, max_knees=4)) <= 4
        assert len(fit_knees(skewed_sample(), SPACE, max_knees=12)) <= 12

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            fit_knees(skewed_sample(), SPACE, max_knees=1)

    def test_uniform_sample_needs_few_knees(self):
        rng = np.random.default_rng(1)
        uniform = rng.integers(0, SPACE.modulus, size=5000)
        knees = fit_knees(uniform, SPACE, max_knees=10, tolerance=0.02)
        assert len(knees) <= 4  # already near-linear

    def test_knee_lands_near_the_skew(self):
        knees = fit_knees(skewed_sample(), SPACE, max_knees=6)
        assert any(45_000 <= k.b <= 55_000 for k in knees[1:-1])


class TestEqualization:
    def test_flattens_skewed_distribution(self):
        sample = skewed_sample()
        eq = equalizer_from_sample(sample, SPACE, max_knees=8)
        # Remap a fresh draw from the same distribution.
        fresh = skewed_sample(seed=9)
        balanced = eq.remap_many(fresh)
        keys, frac = empirical_cdf(balanced, SPACE)
        deviation = np.max(np.abs(frac - keys / SPACE.modulus))
        # Raw deviation is huge (~0.5); balanced must be close to linear.
        raw_keys, raw_frac = empirical_cdf(fresh, SPACE)
        raw_dev = np.max(np.abs(raw_frac - raw_keys / SPACE.modulus))
        assert raw_dev > 0.3
        assert deviation < 0.1

    def test_preserves_order(self):
        sample = skewed_sample()
        eq = equalizer_from_sample(sample, SPACE)
        keys = np.sort(skewed_sample(seed=3))
        out = eq.remap_many(keys)
        assert np.all(np.diff(out) >= 0)


class TestPaperConstants:
    def test_five_distinct_knees(self):
        assert len(PAPER_REMAP_KNEES) == 5
        bs = [k.b for k in PAPER_REMAP_KNEES]
        assert bs == sorted(bs)
        assert bs[0] == 0 and bs[-1] == PAPER_MODULUS

    def test_paper_equalizer_spreads_the_dense_band(self):
        eq = paper_equalizer()
        # 2^16..2^18 holds 67% of mass in 0.2% of the space: its
        # expansion factor must be large.
        assert eq.density_multiplier(2**17) > 100
        # The near-empty tail compresses.
        assert eq.density_multiplier(50_000_000) < 1

    def test_paper_equalizer_quotes_eq6(self):
        eq = paper_equalizer()
        # At the second knee exactly: f(2^16) = 0.079·ℜ.
        assert eq.remap(2**16) == int(0.079 * PAPER_MODULUS)
