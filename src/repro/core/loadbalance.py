"""Hot-region node naming — §3.4.2, Eq. 7, Fig. 5.

Even after the Eq.-6 remap, regions of the key space holding very
popular keywords stay denser than uniform (the B and C bulges of
Fig. 4).  Meteorograph's answer is to bend the *node* ID distribution:
a joining node that draws an ID inside a hot region re-draws it within
one of the region's sub-ranges, picking the sub-range with probability
equal to its **degree of hotness**

    p_ia = (y_ib − y_ia) / (y_it − y_i1)                 (Eq. 7)

— the fraction of the region's items that fall in that sub-range.  Node
density then tracks item density and per-node load flattens.

:func:`detect_hot_regions` automates the paper's by-eye region/knee
selection from a sampled (already remapped) key distribution; the
paper's hand-picked B and C regions live in
``tests/core/test_loadbalance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from ..overlay.idspace import KeySpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

__all__ = [
    "HotRegion",
    "detect_hot_regions",
    "uniform_namer",
    "HotRegionNamer",
]


@dataclass(frozen=True)
class HotRegion:
    """One hot region: knee keys ``xs`` and cumulative item counts ``ys``.

    ``xs`` are t keys delimiting t−1 sub-ranges ``[xs[j], xs[j+1])``;
    ``ys`` are the (non-decreasing) cumulative item masses at those
    keys, in any consistent unit — Eq. 7 only uses differences over the
    region span, so percent (the paper's Fig. 4 axis), counts, or
    fractions all work.
    """

    xs: tuple[int, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if len(self.xs) < 2:
            raise ValueError("a region needs at least two knees")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("knee keys must be strictly increasing")
        if any(b < a for a, b in zip(self.ys, self.ys[1:])):
            raise ValueError("knee masses must be non-decreasing")
        if self.ys[-1] <= self.ys[0]:
            raise ValueError("region has zero total mass")

    @property
    def lo(self) -> int:
        return self.xs[0]

    @property
    def hi(self) -> int:
        return self.xs[-1]

    @property
    def sub_ranges(self) -> int:
        return len(self.xs) - 1

    def contains(self, key: int) -> bool:
        return self.lo <= key < self.hi

    def degrees_of_hotness(self) -> np.ndarray:
        """Eq. 7: p_ij per sub-range; sums to 1."""
        ys = np.asarray(self.ys, dtype=np.float64)
        total = ys[-1] - ys[0]
        return np.diff(ys) / total


def detect_hot_regions(
    keys: Sequence[int] | np.ndarray,
    space: KeySpace,
    *,
    bins: int = 128,
    threshold: float = 1.5,
    max_subknees: int = 12,
) -> list[HotRegion]:
    """Find hot regions in a (remapped) key sample.

    A histogram over ``bins`` equal-width buckets is compared with the
    uniform expectation; maximal runs of buckets denser than
    ``threshold``× uniform become regions.  Each region's knees are its
    bucket edges (coalesced down to ``max_subknees``), with cumulative
    in-region counts as the masses — precisely the inputs Eq. 7 wants.
    """
    arr = np.asarray(keys, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty key sample")
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold}")
    edges = np.linspace(0, space.modulus, bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    uniform = arr.size / bins
    hot = counts > threshold * uniform
    regions: list[HotRegion] = []
    i = 0
    while i < bins:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j < bins and hot[j]:
            j += 1
        # Region spans buckets [i, j).  Build knees at bucket edges.
        sub = counts[i:j]
        n_sub = j - i
        if n_sub > max_subknees - 1:
            # Coalesce adjacent buckets evenly to respect the knee budget.
            groups = np.array_split(np.arange(n_sub), max_subknees - 1)
            edge_idx = [i] + [int(g[-1]) + i + 1 for g in groups]
            masses = [int(counts[a:b].sum()) for a, b in zip(edge_idx, edge_idx[1:])]
        else:
            edge_idx = list(range(i, j + 1))
            masses = [int(c) for c in sub]
        xs = tuple(int(edges[e]) for e in edge_idx)
        ys_list = [0.0]
        for m in masses:
            ys_list.append(ys_list[-1] + m)
        if ys_list[-1] > 0:
            regions.append(HotRegion(xs=xs, ys=tuple(ys_list)))
        i = j
    return regions


def uniform_namer(space: KeySpace) -> Callable[[np.random.Generator], int]:
    """The baseline namer: a uniformly random key (SHA-1 stand-in)."""

    def name(rng: np.random.Generator) -> int:
        return space.random_key(rng)

    return name


class HotRegionNamer:
    """Fig. 5's node-naming algorithm.

    Draw a uniform key; if it lands outside every hot region, keep it.
    Inside region ``G_i``, pick sub-range ``s`` with probability equal
    to its degree of hotness (Eq. 7) and re-draw within ``[x_is,
    x_i(s+1))``.  (Fig. 5 re-draws by rejection from the full space;
    sampling the sub-range directly is distribution-identical and
    O(1).)  Node density inside hot regions then follows item density.
    """

    def __init__(
        self,
        space: KeySpace,
        regions: Sequence[HotRegion],
        *,
        obs: Optional["Observability"] = None,
    ) -> None:
        for r in regions:
            if r.hi > space.modulus:
                raise ValueError(
                    f"region [{r.lo},{r.hi}) exceeds key space {space.modulus}"
                )
        # Regions must not overlap — sort and verify.
        ordered = sorted(regions, key=lambda r: r.lo)
        for a, b in zip(ordered, ordered[1:]):
            if b.lo < a.hi:
                raise ValueError(
                    f"hot regions overlap: [{a.lo},{a.hi}) and [{b.lo},{b.hi})"
                )
        self.space = space
        self.regions = tuple(ordered)
        self._obs = obs
        self._cum = [np.concatenate(([0.0], np.cumsum(r.degrees_of_hotness()))) for r in self.regions]

    def region_of(self, key: int) -> HotRegion | None:
        for r in self.regions:
            if r.contains(key):
                return r
        return None

    def __call__(self, rng: np.random.Generator) -> int:
        key = self.space.random_key(rng)
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.metrics.counter("naming.draws")
        for r, cum in zip(self.regions, self._cum):
            if not r.contains(key):
                continue
            u = rng.random()
            s = int(np.searchsorted(cum, u, side="right")) - 1
            s = min(max(s, 0), r.sub_ranges - 1)
            lo, hi = r.xs[s], r.xs[s + 1]
            if obs is not None and obs.enabled:
                obs.metrics.counter("naming.hot_redraws")
            return int(rng.integers(lo, hi))
        return key
