"""Unit tests for hot-region detection and node naming (Eq. 7, Fig. 5).

The paper's hand-picked B and C regions of §3.4.2 are kept here as the
reference Eq. 7's degrees of hotness are checked on.
"""

import numpy as np
import pytest

from repro.core.loadbalance import (
    HotRegion,
    HotRegionNamer,
    detect_hot_regions,
    uniform_namer,
)
from repro.overlay.idspace import KeySpace, PAPER_MODULUS

SPACE = KeySpace(100_000)

#: §3.4.2's hand-picked regions for the paper's trace (ℜ = 10⁸).  Region
#: B has 12 knees, region C six; ``ys`` are the Fig. 4 CDF percentages.
PAPER_HOT_REGIONS: tuple[HotRegion, ...] = (
    HotRegion(
        xs=(
            20_000_000, 25_000_000, 30_000_000, 35_000_000, 40_000_000,
            45_000_000, 50_000_000, 55_000_000, 60_000_000, 65_000_000,
            70_000_000, 75_000_000,
        ),
        ys=(18, 31, 38, 46, 52, 57, 62, 66, 69, 72, 73, 75),
    ),
    HotRegion(
        xs=(75_000_000, 80_000_000, 85_000_000, 90_000_000, 95_000_000, 100_000_000),
        ys=(75, 86, 91, 94, 95, 100),
    ),
)


def paper_hot_regions(space: KeySpace | None = None) -> tuple[HotRegion, ...]:
    """The paper's B and C regions; validates the expected key space."""
    if space is not None and space.modulus != PAPER_MODULUS:
        raise ValueError(
            f"paper hot regions assume modulus {PAPER_MODULUS}, got {space.modulus}"
        )
    return PAPER_HOT_REGIONS


class TestHotRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotRegion(xs=(10,), ys=(1.0,))  # too few knees
        with pytest.raises(ValueError):
            HotRegion(xs=(10, 5), ys=(0.0, 1.0))  # xs not increasing
        with pytest.raises(ValueError):
            HotRegion(xs=(10, 20), ys=(1.0, 0.5))  # ys decreasing
        with pytest.raises(ValueError):
            HotRegion(xs=(10, 20), ys=(1.0, 1.0))  # zero mass
        with pytest.raises(ValueError):
            HotRegion(xs=(10, 20, 15), ys=(0, 1, 2))

    def test_contains(self):
        r = HotRegion(xs=(10, 20, 30), ys=(0, 5, 10))
        assert r.contains(10) and r.contains(29)
        assert not r.contains(30) and not r.contains(9)

    def test_eq7_degrees_sum_to_one(self):
        r = HotRegion(xs=(0, 10, 20, 30), ys=(0, 8, 9, 10))
        p = r.degrees_of_hotness()
        assert p.sum() == pytest.approx(1.0)
        assert p[0] == pytest.approx(0.8)
        assert p[1] == pytest.approx(0.1)

    def test_paper_regions_valid(self):
        assert len(PAPER_HOT_REGIONS) == 2
        b, c = PAPER_HOT_REGIONS
        assert b.sub_ranges == 11  # 12 knees
        assert c.sub_ranges == 5  # 6 knees
        assert b.degrees_of_hotness().sum() == pytest.approx(1.0)

    def test_paper_regions_space_guard(self):
        assert paper_hot_regions(KeySpace(PAPER_MODULUS)) == PAPER_HOT_REGIONS
        with pytest.raises(ValueError):
            paper_hot_regions(SPACE)


class TestDetection:
    def planted_sample(self, seed=0, n=20_000):
        """Uniform background plus a dense region in [40k, 44k)."""
        rng = np.random.default_rng(seed)
        bg = rng.integers(0, SPACE.modulus, size=n // 2)
        hot = rng.integers(40_000, 44_000, size=n // 2)
        return np.concatenate([bg, hot])

    def test_finds_planted_region(self):
        regions = detect_hot_regions(self.planted_sample(), SPACE, bins=100, threshold=2.0)
        assert len(regions) >= 1
        covering = [r for r in regions if r.lo <= 41_000 < r.hi]
        assert covering, [f"[{r.lo},{r.hi})" for r in regions]

    def test_uniform_sample_has_no_regions(self):
        rng = np.random.default_rng(1)
        uniform = rng.integers(0, SPACE.modulus, size=20_000)
        assert detect_hot_regions(uniform, SPACE, threshold=2.0) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            detect_hot_regions([1, 2], SPACE, threshold=1.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            detect_hot_regions([], SPACE)

    def test_subknee_budget(self):
        # A very wide hot band must be coalesced to the knee budget.
        rng = np.random.default_rng(2)
        wide = rng.integers(20_000, 80_000, size=20_000)
        regions = detect_hot_regions(
            wide, SPACE, bins=100, threshold=1.2, max_subknees=5
        )
        for r in regions:
            assert len(r.xs) <= 5


class TestNamers:
    def test_uniform_namer_in_space(self):
        name = uniform_namer(SPACE)
        rng = np.random.default_rng(0)
        ks = [name(rng) for _ in range(200)]
        assert all(0 <= k < SPACE.modulus for k in ks)

    def region(self):
        # Sub-ranges [0,10k) and [10k,20k) with hotness 0.9 / 0.1.
        return HotRegion(xs=(0, 10_000, 20_000), ys=(0.0, 90.0, 100.0))

    def test_hot_namer_respects_hotness(self):
        namer = HotRegionNamer(SPACE, [self.region()])
        rng = np.random.default_rng(3)
        draws = [namer(rng) for _ in range(4000)]
        in_region = [k for k in draws if k < 20_000]
        lo = sum(1 for k in in_region if k < 10_000)
        # P(sub-range 1 | in region) should be ≈ 0.9.
        assert lo / len(in_region) == pytest.approx(0.9, abs=0.05)

    def test_hot_namer_outside_region_unbiased(self):
        namer = HotRegionNamer(SPACE, [self.region()])
        rng = np.random.default_rng(4)
        draws = np.array([namer(rng) for _ in range(4000)])
        outside = draws[draws >= 20_000]
        # Outside keys stay uniform over [20k, 100k).
        assert outside.mean() == pytest.approx(60_000, rel=0.05)

    def test_region_of(self):
        namer = HotRegionNamer(SPACE, [self.region()])
        assert namer.region_of(5) is not None
        assert namer.region_of(50_000) is None

    def test_overlapping_regions_rejected(self):
        r1 = HotRegion(xs=(0, 10_000), ys=(0.0, 1.0))
        r2 = HotRegion(xs=(5_000, 15_000), ys=(0.0, 1.0))
        with pytest.raises(ValueError):
            HotRegionNamer(SPACE, [r1, r2])

    def test_region_exceeding_space_rejected(self):
        r = HotRegion(xs=(0, SPACE.modulus + 1), ys=(0.0, 1.0))
        with pytest.raises(ValueError):
            HotRegionNamer(SPACE, [r])

    def test_deterministic_under_seed(self):
        namer = HotRegionNamer(SPACE, [self.region()])
        a = [namer(np.random.default_rng(9)) for _ in range(10)]
        b = [namer(np.random.default_rng(9)) for _ in range(10)]
        assert a == b
