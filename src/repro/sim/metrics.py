"""Hop and message accounting.

The paper's entire evaluation is expressed in two currencies: *hops*
(sequential overlay forwards on a query's critical path) and *messages*
(total transmissions, including off-path fetches and replies where the
paper counts them).  :class:`MetricSink` is the message bill — the
single place messages are tallied; every layer that moves a message
charges it here.  Distributions and timers are not its business: the
one store for those is :class:`repro.obs.MetricsRegistry`.

:class:`HopHistogram` aggregates per-query hop counts into the
distributions Figures 7, 9 and 10a plot.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

__all__ = ["MetricSink", "HopHistogram"]


class MetricSink:
    """Accumulates message counts by category.

    Categories are free-form strings (``"route"``, ``"publish"``,
    ``"displace"``, ``"reply"``, ``"flood"`` ...).  ``total`` sums them
    all.  The sink can be snapshotted and diffed, which is how per-query
    message costs are extracted from a shared network.
    """

    def __init__(self) -> None:
        self._by_kind: Counter[str] = Counter()

    def charge(self, kind: str, n: int = 1) -> None:
        """Record ``n`` messages of the given category."""
        if n < 0:
            raise ValueError(f"cannot charge negative messages: {n}")
        self._by_kind[kind] += n

    def count(self, kind: str) -> int:
        """Messages recorded under one category."""
        return self._by_kind[kind]

    @property
    def total(self) -> int:
        """Total messages across all categories."""
        return sum(self._by_kind.values())

    def snapshot(self) -> dict[str, int]:
        """A copy of the per-category counts."""
        return dict(self._by_kind)

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Per-category delta against an earlier :meth:`snapshot`."""
        out: dict[str, int] = {}
        for kind, val in self._by_kind.items():
            d = val - before.get(kind, 0)
            if d:
                out[kind] = d
        return out


class HopHistogram:
    """Histogram of per-query hop counts with the summary stats the paper quotes."""

    def __init__(self) -> None:
        self._counts: Counter[int] = Counter()
        self._n = 0

    def add(self, hops: int) -> None:
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        self._counts[hops] += 1
        self._n += 1

    def extend(self, hop_values: Iterable[int]) -> None:
        for h in hop_values:
            self.add(h)

    def __len__(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("empty histogram")
        return sum(h * c for h, c in self._counts.items()) / self._n

    @property
    def max(self) -> int:
        if self._n == 0:
            raise ValueError("empty histogram")
        return max(self._counts)

    def quantile(self, q: float) -> int:
        """Smallest hop count h such that P(hops <= h) >= q."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        if self._n == 0:
            raise ValueError("empty histogram")
        need = q * self._n
        acc = 0
        for h in sorted(self._counts):
            acc += self._counts[h]
            if acc >= need:
                return h
        return max(self._counts)

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(hops, cumulative fraction) arrays — the Fig. 7/9 y-axis."""
        if self._n == 0:
            return np.array([], dtype=np.int64), np.array([], dtype=float)
        hs = np.array(sorted(self._counts), dtype=np.int64)
        cs = np.cumsum([self._counts[int(h)] for h in hs]) / self._n
        return hs, cs

    def as_dict(self) -> dict[int, int]:
        return dict(self._counts)
