"""Knee extraction from sampled key distributions (§3.4.1, Fig. 3–4).

The load balancer needs a compact piecewise-linear summary of the
sampled key CDF — the "points of knees" the paper identifies by eye.
:func:`fit_knees` automates that with farthest-point polyline
simplification (Douglas–Peucker style) over the empirical CDF, pinning
the endpoints at (0, 0) and (1, ℜ) as Eq. 6 requires.

The experiments fit knees to their own (same-shaped) synthetic trace;
the five knees the paper quotes for its World Cup trace live in
``tests/core/test_knees.py``, which replays the published remap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..overlay.idspace import KeySpace
from .naming import CdfEqualizer, Knee

__all__ = [
    "empirical_cdf",
    "fit_knees",
    "equalizer_from_sample",
]


def empirical_cdf(keys: Sequence[int] | np.ndarray, space: KeySpace) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a key sample: (sorted keys, cumulative fraction).

    This is the curve of Figures 3 and 4.  The returned fractions are
    ``i/n`` for the i-th smallest key (i starting at 1).
    """
    arr = np.sort(np.asarray(keys, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("empty key sample")
    if arr[0] < 0 or arr[-1] >= space.modulus:
        raise ValueError("sample contains keys outside the space")
    frac = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    return arr, frac


def _polyline_deviation(xs: np.ndarray, ys: np.ndarray, i: int, j: int) -> tuple[int, float]:
    """Index and value of the max vertical deviation of points (i..j)
    from the chord between points i and j."""
    if j <= i + 1:
        return i, 0.0
    x0, y0 = xs[i], ys[i]
    x1, y1 = xs[j], ys[j]
    seg_x = xs[i + 1 : j]
    if x1 == x0:
        dev = np.abs(ys[i + 1 : j] - y0)
    else:
        chord = y0 + (y1 - y0) * (seg_x - x0) / (x1 - x0)
        dev = np.abs(ys[i + 1 : j] - chord)
    k = int(np.argmax(dev))
    return i + 1 + k, float(dev[k])


def fit_knees(
    keys: Sequence[int] | np.ndarray,
    space: KeySpace,
    *,
    max_knees: int = 8,
    tolerance: float = 0.005,
    grid: int = 512,
) -> list[Knee]:
    """Select ≤ ``max_knees`` knees summarising the sample's CDF.

    Farthest-point insertion: start from the pinned endpoints, then
    repeatedly add the CDF point with the largest vertical deviation
    from the current polyline until the deviation drops below
    ``tolerance`` (in CDF units) or the knee budget is spent.  The CDF
    is pre-decimated to ``grid`` quantile points so fitting is O(grid ·
    knees) regardless of sample size.
    """
    if max_knees < 2:
        raise ValueError(f"max_knees must be >= 2, got {max_knees}")
    sorted_keys, frac = empirical_cdf(keys, space)
    # Decimate to quantile grid (plus the extremes).
    if sorted_keys.size > grid:
        idx = np.unique(
            np.linspace(0, sorted_keys.size - 1, grid).round().astype(np.int64)
        )
        sorted_keys, frac = sorted_keys[idx], frac[idx]
    # Pin the endpoints Eq. 6 requires.
    xs = np.concatenate(([0], sorted_keys.astype(np.float64), [float(space.modulus)]))
    ys = np.concatenate(([0.0], frac, [1.0]))
    # Collapse duplicate x (keep the largest CDF value at each x).
    keep = np.concatenate((xs[1:] != xs[:-1], [True]))
    xs, ys = xs[keep], ys[keep]
    ys = np.maximum.accumulate(ys)  # enforce monotone CDF after dedup

    chosen = {0, len(xs) - 1}
    while len(chosen) < max_knees:
        anchors = sorted(chosen)
        best_idx, best_dev = -1, tolerance
        for i, j in zip(anchors, anchors[1:]):
            k, dev = _polyline_deviation(xs, ys, i, j)
            if dev > best_dev:
                best_idx, best_dev = k, dev
        if best_idx < 0:
            break
        chosen.add(best_idx)
    out = [Knee(float(ys[i]), int(xs[i])) for i in sorted(chosen)]
    # Re-pin exact endpoint values (floating error guard).
    out[0] = Knee(0.0, 0)
    out[-1] = Knee(1.0, space.modulus)
    return out


def equalizer_from_sample(
    keys: Sequence[int] | np.ndarray,
    space: KeySpace,
    *,
    max_knees: int = 8,
    tolerance: float = 0.005,
) -> CdfEqualizer:
    """Fit knees on a sample and build the Eq.-6 equalizer in one step."""
    return CdfEqualizer(
        fit_knees(keys, space, max_knees=max_knees, tolerance=tolerance), space
    )
