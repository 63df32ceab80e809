"""Trace statistics — Table 1 and Figure 6.

Table 1 summarises the workload (clients, objects, basket-size
min/mean/max); Figure 6 plots per-client basket sizes in decreasing
order.  Both are pure functions of the corpus so that the synthetic
trace can be checked against the paper's shape targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vsm.sparse import Corpus

__all__ = ["TraceStats", "trace_statistics", "basket_size_profile"]


@dataclass(frozen=True)
class TraceStats:
    """The Table 1 fields."""

    n_items: int
    n_keywords_used: int
    n_keywords_space: int
    mean_basket: float
    max_basket: int
    min_basket: int

    def as_rows(self) -> list[tuple[str, str]]:
        """(label, value) rows matching Table 1's layout."""
        return [
            ("Number of clients", f"{self.n_items:,}"),
            ("Number of Web objects accessed", f"{self.n_keywords_used:,}"),
            (
                "Average number of Web objects accessed by a client",
                f"{self.mean_basket:.0f}",
            ),
            (
                "Maximum number of Web objects accessed by a client",
                f"{self.max_basket:,}",
            ),
            (
                "Minimum number of Web objects accessed by a client",
                f"{self.min_basket:,}",
            ),
        ]


def trace_statistics(corpus: Corpus) -> TraceStats:
    """Compute the Table 1 statistics for any corpus."""
    sizes = corpus.nnz_per_item()
    if sizes.size == 0:
        raise ValueError("empty corpus")
    used = int((corpus.keyword_frequencies() > 0).sum())
    return TraceStats(
        n_items=corpus.n_items,
        n_keywords_used=used,
        n_keywords_space=corpus.dim,
        mean_basket=float(sizes.mean()),
        max_basket=int(sizes.max()),
        min_basket=int(sizes.min()),
    )


def basket_size_profile(corpus: Corpus) -> np.ndarray:
    """Fig. 6: basket sizes sorted in decreasing order.

    The x-axis is the (re-ranked) client id, the y-axis the number of
    objects accessed.
    """
    return np.sort(corpus.nnz_per_item())[::-1]
