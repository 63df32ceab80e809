"""Key naming — Equations 4–6 (§3.2, §3.4.1).

Two key spaces coexist per item:

* the **angle key** (Eq. 4/5): ``ħ = floor((θ/π)·ℜ)`` where θ is the
  absolute angle.  Similar items get nearby angle keys — this is the
  clustering key.
* the **balanced key** (Eq. 6): the angle key pushed through a
  piecewise-linear CDF equalizer fit to a sampled key distribution,
  spreading items over the otherwise almost-unused address space
  without scrambling the similarity order (the map is monotone).

:class:`CdfEqualizer` implements Eq. 6 with arbitrary knees; knee
*selection* from a sample lives in :mod:`repro.core.knees`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..overlay.idspace import KeySpace
from ..vsm.sparse import Corpus, SparseVector
from .angles import absolute_angle, absolute_angles

__all__ = ["angle_to_key", "vector_to_key", "corpus_to_keys", "Knee", "CdfEqualizer"]


def angle_to_key(theta: float, space: KeySpace) -> int:
    """Eq. 4: ħ = floor((θ/π)·ℜ), clamped into the space.

    θ is in radians; θ = π maps to the top key ℜ−1 (the floor would
    otherwise land exactly on ℜ, one past the space).
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must be in [0, π], got {theta}")
    key = int((theta / math.pi) * space.modulus)
    return min(key, space.modulus - 1)


def vector_to_key(vector: SparseVector, space: KeySpace) -> int:
    """Eq. 5: the angle key of one vector."""
    return angle_to_key(absolute_angle(vector), space)


def corpus_to_keys(
    corpus: Corpus, space: KeySpace, *, chunk_rows: int | None = None
) -> np.ndarray:
    """Vectorised Eq. 5 over a whole corpus (int64 keys).

    ``chunk_rows`` streams the angle pass in row chunks with
    bit-identical keys — the key map itself is elementwise, so only the
    O(nnz) angle temporaries need bounding.  See
    :func:`repro.core.angles.absolute_angles`.
    """
    thetas = absolute_angles(corpus, chunk_rows=chunk_rows)
    keys = np.floor((thetas / math.pi) * space.modulus).astype(np.int64)
    return np.minimum(keys, space.modulus - 1)


@dataclass(frozen=True)
class Knee:
    """One knee of the sampled-key CDF: at key ``b``, CDF = ``a`` ∈ [0,1].

    Matches the paper's ``(a_i, b_i)`` pairs of §3.4.1 (a = cumulative
    fraction, b = key).
    """

    a: float
    b: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"CDF value must be in [0,1], got {self.a}")
        if self.b < 0:
            raise ValueError(f"knee key must be >= 0, got {self.b}")


class CdfEqualizer:
    """Eq. 6: the piecewise-linear key remap f(h) = ℜ·(aᵢ + (aⱼ−aᵢ)·(h−bᵢ)/(bⱼ−bᵢ)).

    Knees must start at (0, 0), end at (1, ℜ), and be non-decreasing in
    both coordinates; the remap is then a monotone surjection of the key
    space onto itself that equalises the sampled distribution — keys in
    dense regions spread out, keys in empty regions compress.

    Monotonicity is the correctness linchpin: it preserves the
    similarity ordering of angle keys, so clustered items stay
    contiguous after balancing (§3.4.1 "without scrambling those
    similar items that are aggregated").
    """

    def __init__(self, knees: Sequence[Knee], space: KeySpace) -> None:
        if len(knees) < 2:
            raise ValueError("need at least two knees")
        self.space = space
        ks = sorted(knees, key=lambda k: (k.b, k.a))
        if ks[0].b != 0 or ks[0].a != 0.0:
            raise ValueError("first knee must be (a=0, b=0)")
        if ks[-1].b != space.modulus or ks[-1].a != 1.0:
            raise ValueError(
                f"last knee must be (a=1, b=modulus={space.modulus}), got "
                f"(a={ks[-1].a}, b={ks[-1].b})"
            )
        for prev, cur in zip(ks, ks[1:]):
            if cur.a < prev.a:
                raise ValueError("knee CDF values must be non-decreasing")
        # Drop zero-width segments (the paper's own knee list repeats a
        # point); they would divide by zero in Eq. 6.
        dedup: list[Knee] = [ks[0]]
        for k in ks[1:]:
            if k.b == dedup[-1].b:
                dedup[-1] = Knee(max(dedup[-1].a, k.a), k.b)
            else:
                dedup.append(k)
        if len(dedup) < 2:
            raise ValueError("knees collapse to a single point")
        self.knees = dedup
        self._bs = np.array([k.b for k in dedup], dtype=np.int64)
        self._as = np.array([k.a for k in dedup], dtype=np.float64)

    @property
    def segments(self) -> int:
        return len(self.knees) - 1

    def remap(self, key: int) -> int:
        """Eq. 6 for one key."""
        self.space.validate(key)
        i = int(np.searchsorted(self._bs, key, side="right")) - 1
        i = min(max(i, 0), len(self.knees) - 2)
        lo, hi = self.knees[i], self.knees[i + 1]
        frac = lo.a + (hi.a - lo.a) * (key - lo.b) / (hi.b - lo.b)
        return min(int(frac * self.space.modulus), self.space.modulus - 1)

    def remap_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised Eq. 6 (int64 in, int64 out)."""
        arr = np.asarray(keys, dtype=np.int64)
        seg = np.searchsorted(self._bs, arr, side="right") - 1
        seg = np.clip(seg, 0, len(self.knees) - 2)
        lo_b = self._bs[seg].astype(np.float64)
        hi_b = self._bs[seg + 1].astype(np.float64)
        lo_a = self._as[seg]
        hi_a = self._as[seg + 1]
        frac = lo_a + (hi_a - lo_a) * (arr - lo_b) / (hi_b - lo_b)
        out = (frac * self.space.modulus).astype(np.int64)
        return np.minimum(out, self.space.modulus - 1)

    def density_multiplier(self, key: int) -> float:
        """Local expansion factor of the remap at ``key`` (d f / d h).

        > 1 where the sample was dense (keys spread out), < 1 where it
        was sparse.  Exposed for the hot-region analysis and tests.
        """
        self.space.validate(key)
        i = int(np.searchsorted(self._bs, key, side="right")) - 1
        i = min(max(i, 0), len(self.knees) - 2)
        lo, hi = self.knees[i], self.knees[i + 1]
        return (hi.a - lo.a) * self.space.modulus / (hi.b - lo.b)
