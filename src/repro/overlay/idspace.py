"""One-dimensional hash key space arithmetic.

Meteorograph (and the overlays beneath it) address everything with keys
drawn from a single linear hash address space ``[0, modulus)``.  Two
distance notions coexist:

* **ring distance** — the shortest way around the circle; used by the
  overlay routing layer (Tornado/Chord treat the space as a ring).
* **linear distance** — plain ``|a - b|``; used by Meteorograph's
  half-circle model, where absolute angles map monotonically onto keys
  and the "closest neighbor" walk must not wrap around.

All functions accept plain ints; vectorised variants accept NumPy
arrays and are used for corpus-scale key math.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = ["KeySpace", "DEFAULT_BITS", "PAPER_MODULUS"]

DEFAULT_BITS = 32
#: The modulus used by the paper's evaluation (knees are quoted against 1e8).
PAPER_MODULUS = 10**8


@dataclass(frozen=True)
class KeySpace:
    """A linear/circular hash address space ``[0, modulus)``.

    Parameters
    ----------
    modulus:
        Size of the space.  Defaults to ``2**32``.  The paper's plots use
        ``10**8`` (:data:`PAPER_MODULUS`).
    """

    modulus: int = 1 << DEFAULT_BITS

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    # -- scalar helpers -------------------------------------------------

    def contains(self, key: int) -> bool:
        """Whether ``key`` is a valid key of this space."""
        return 0 <= key < self.modulus

    def validate(self, key: int) -> int:
        """Return ``key`` unchanged, raising ``ValueError`` if out of range."""
        if not self.contains(key):
            raise ValueError(f"key {key!r} outside [0, {self.modulus})")
        return key

    def wrap(self, key: int) -> int:
        """Reduce an arbitrary integer into the space (mod modulus)."""
        return key % self.modulus

    def linear_distance(self, a: int, b: int) -> int:
        """``|a - b|`` without wrap-around (half-circle / angle model)."""
        return abs(a - b)

    def ring_distance(self, a: int, b: int) -> int:
        """Shortest circular distance between two keys."""
        d = abs(a - b) % self.modulus
        return min(d, self.modulus - d)

    def clockwise_distance(self, a: int, b: int) -> int:
        """Distance travelling from ``a`` to ``b`` in increasing-key order."""
        return (b - a) % self.modulus

    def in_half_open(self, key: int, lo: int, hi: int) -> bool:
        """Whether ``key`` lies in the circular half-open interval ``(lo, hi]``.

        Chord-style interval test: handles wrap-around.  Degenerate case
        ``lo == hi`` denotes the full circle.
        """
        if lo == hi:
            return True
        if lo < hi:
            return lo < key <= hi
        return key > lo or key <= hi

    def midpoint(self, a: int, b: int) -> int:
        """Clockwise midpoint between two keys."""
        return self.wrap(a + self.clockwise_distance(a, b) // 2)

    # -- array helpers ---------------------------------------------------

    def linear_distances(self, keys: np.ndarray, ref: int) -> np.ndarray:
        """Vectorised :meth:`linear_distance` against one reference key."""
        arr = np.asarray(keys, dtype=np.int64)
        return np.abs(arr - np.int64(ref))

    def ring_distances(self, keys: np.ndarray, ref: int) -> np.ndarray:
        """Vectorised :meth:`ring_distance` against one reference key."""
        arr = np.asarray(keys, dtype=np.int64)
        d = np.abs(arr - np.int64(ref)) % self.modulus
        return np.minimum(d, self.modulus - d)

    def fraction_to_key(self, frac: float) -> int:
        """Map a fraction of the space ``[0, 1]`` to a key (clamped)."""
        k = int(frac * self.modulus)
        return min(max(k, 0), self.modulus - 1)

    def key_to_fraction(self, key: int) -> float:
        """Map a key to its position in ``[0, 1)``."""
        return key / self.modulus

    def random_key(self, rng: np.random.Generator) -> int:
        """Draw a uniform key using ``rng`` (works for moduli > 2**63 too)."""
        if self.modulus <= (1 << 63):
            return int(rng.integers(0, self.modulus))
        # Compose from 32-bit words for arbitrary-width moduli.
        nbits = self.modulus.bit_length()
        while True:
            words = (nbits + 31) // 32
            val = 0
            for w in rng.integers(0, 1 << 32, size=words, dtype=np.uint64):
                val = (val << 32) | int(w)
            val &= (1 << nbits) - 1
            if val < self.modulus:
                return val

    def random_keys(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` uniform keys (requires modulus <= 2**63)."""
        if self.modulus > (1 << 63):
            return np.array([self.random_key(rng) for _ in range(n)], dtype=object)
        return rng.integers(0, self.modulus, size=n, dtype=np.int64)


class SortedKeyRing:
    """A sorted, mutable set of keys supporting nearest-key queries.

    This is the membership index shared by the overlays: node IDs live in
    a sorted array, and both "numerically closest node" (ring metric) and
    "next neighbor in key order" (linear walk) are answered with binary
    search.  Mutations are O(n) (array insert), which is fine at the
    simulator scales of this repo (<= a few 10^4 nodes).
    """

    def __init__(self, space: KeySpace, keys: Iterable[int] = ()) -> None:
        self.space = space
        self._keys: list[int] = sorted(set(space.validate(k) for k in keys))

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        i = bisect.bisect_left(self._keys, key)
        return i < len(self._keys) and self._keys[i] == key

    def __iter__(self):
        return iter(self._keys)

    def as_array(self) -> np.ndarray:
        """Snapshot of the keys as a sorted int64 array."""
        return np.asarray(self._keys, dtype=np.int64)

    # -- mutation ----------------------------------------------------------

    def add(self, key: int) -> None:
        """Insert a key; raises if it is already present."""
        self.space.validate(key)
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            raise ValueError(f"key {key} already in ring")
        self._keys.insert(i, key)

    def update(self, keys: Iterable[int]) -> None:
        """Bulk-insert keys in one sorted merge; raises on any duplicate.

        Equivalent to ``add`` per key but O((n+k) + k log k) instead of
        O(n·k) — the difference between minutes and milliseconds when
        seeding a 10⁵-node ring (``Meteorograph.build``'s bulk path).
        """
        incoming = sorted(self.space.validate(k) for k in keys)
        if not incoming:
            return
        for a, b in zip(incoming, incoming[1:]):
            if a == b:
                raise ValueError(f"key {a} already in ring")
        if self._keys:
            pos = 0
            for k in incoming:
                pos = bisect.bisect_left(self._keys, k, pos)
                if pos < len(self._keys) and self._keys[pos] == k:
                    raise ValueError(f"key {k} already in ring")
        merged = self._keys + incoming
        merged.sort()
        self._keys = merged

    def discard(self, key: int) -> bool:
        """Remove a key if present; returns whether it was removed."""
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            del self._keys[i]
            return True
        return False

    # -- queries -----------------------------------------------------------

    def _require_nonempty(self) -> None:
        if not self._keys:
            raise LookupError("empty key ring")

    def successor(self, key: int) -> int:
        """First ring key at or after ``key`` in clockwise order (wraps)."""
        self._require_nonempty()
        i = bisect.bisect_left(self._keys, key)
        return self._keys[i % len(self._keys)]

    def predecessor(self, key: int) -> int:
        """Last ring key strictly before ``key`` in clockwise order (wraps)."""
        self._require_nonempty()
        i = bisect.bisect_left(self._keys, key)
        return self._keys[(i - 1) % len(self._keys)]

    def closest(self, key: int) -> int:
        """Ring key numerically closest to ``key`` under the ring metric.

        Ties are broken toward the smaller key so the mapping is
        deterministic (the paper never specifies tie-breaks; determinism
        is what matters for reproducibility).
        """
        keys = self._keys
        if not keys:
            raise LookupError("empty key ring")
        i = bisect.bisect_left(keys, key)
        succ = keys[i] if i < len(keys) else keys[0]
        pred = keys[i - 1]  # i == 0 wraps to the last key
        ds, dp = self.space.ring_distance(succ, key), self.space.ring_distance(pred, key)
        if ds < dp:
            return succ
        if dp < ds:
            return pred
        return min(succ, pred)

    def closest_linear(self, key: int) -> int:
        """Ring key closest under the *linear* (non-wrapping) metric."""
        self._require_nonempty()
        i = bisect.bisect_left(self._keys, key)
        cands = []
        if i < len(self._keys):
            cands.append(self._keys[i])
        if i > 0:
            cands.append(self._keys[i - 1])
        return min(cands, key=lambda k: (abs(k - key), k))

    def neighbors_outward(self, key: int, wrap: bool = False):
        """Yield ring keys ordered by increasing distance from ``key``.

        ``key`` itself is excluded when present.  With ``wrap=False`` the
        walk uses linear distance and stops at the ends of the space —
        this is Meteorograph's closest-neighbor walk over the half
        circle.  With ``wrap=True`` the ring metric is used.
        """
        self._require_nonempty()
        n = len(self._keys)
        i = bisect.bisect_left(self._keys, key)
        has_self = i < n and self._keys[i] == key
        lo = i - 1
        hi = i + 1 if has_self else i
        dist = (
            (lambda k: self.space.ring_distance(k, key))
            if wrap
            else (lambda k: abs(k - key))
        )
        if wrap:
            # Two-pointer merge over the circular order; indices wrap mod n.
            # Equidistant pairs emit the smaller key first — the same
            # tie-break as ``closest`` and the route kernel, so the
            # ``live_home`` preference order agrees with where greedy
            # strict-descent routing actually settles.
            emitted = 0
            lo_i, hi_i = lo, hi
            total = n - (1 if has_self else 0)
            while emitted < total:
                lo_k = self._keys[lo_i % n]
                hi_k = self._keys[hi_i % n]
                dh = dist(hi_k)
                dl = dist(lo_k)
                if dh < dl or (dh == dl and hi_k < lo_k):
                    yield hi_k
                    hi_i += 1
                else:
                    yield lo_k
                    lo_i -= 1
                emitted += 1
            return
        while lo >= 0 or hi < n:
            if lo < 0:
                yield self._keys[hi]
                hi += 1
            elif hi >= n:
                yield self._keys[lo]
                lo -= 1
            else:
                kl, kh = self._keys[lo], self._keys[hi]
                if dist(kh) <= dist(kl):
                    yield kh
                    hi += 1
                else:
                    yield kl
                    lo -= 1

    def range_count(self, lo: int, hi: int) -> int:
        """Number of keys in the linear half-open interval ``[lo, hi)``."""
        return bisect.bisect_left(self._keys, hi) - bisect.bisect_left(self._keys, lo)

    def range_keys(self, lo: int, hi: int, limit: Optional[int] = None) -> list[int]:
        """Keys in ``[lo, hi)`` in ascending order, optionally capped."""
        i = bisect.bisect_left(self._keys, lo)
        j = bisect.bisect_left(self._keys, hi)
        if limit is not None:
            j = min(j, i + limit)
        return self._keys[i:j]

    def rank(self, key: int) -> int:
        """Index of ``key`` in sorted order; raises if absent."""
        i = bisect.bisect_left(self._keys, key)
        if i >= len(self._keys) or self._keys[i] != key:
            raise KeyError(key)
        return i

    def at(self, rank: int) -> int:
        """Key at a given sorted rank (supports negative indices)."""
        return self._keys[rank]
