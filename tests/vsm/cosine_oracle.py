"""Brute-force cosine semantics (§2), the oracle for ranked local search.

The paper's similarity predicate: the angle between a query vector and
an item vector, from the normalised dot product; two vectors are
*similar* when the angle falls below a threshold τ.  Ranked search
("top-ten items similar to a query") uses the same cosine ordering,
which ``LocalVsmIndex.query`` must reproduce (``test_index.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.vsm.sparse import Corpus, SparseVector


def angle_between(a: SparseVector, b: SparseVector) -> float:
    """∂ = cos⁻¹(cos-similarity), in radians ∈ [0, π].

    Zero vectors are maximally dissimilar by convention (angle π/2),
    which keeps the predicate total without special-casing callers.
    """
    c = a.cosine(b)
    if a.is_zero or b.is_zero:
        return math.pi / 2
    return math.acos(min(1.0, max(-1.0, c)))


def is_similar(a: SparseVector, b: SparseVector, tau: float) -> bool:
    """The paper's predicate: angle(a, b) < τ (τ in radians)."""
    if not 0 < tau <= math.pi:
        raise ValueError(f"tau must be in (0, π], got {tau}")
    return angle_between(a, b) < tau


def rank_by_cosine(corpus: Corpus, query: SparseVector) -> np.ndarray:
    """Item ids in decreasing cosine similarity to ``query``.

    Ties are broken by item id (ascending), making rankings
    deterministic across runs.
    """
    sims = corpus.cosine_against(query)
    # lexsort: last key is primary; negate sims for descending.
    return np.lexsort((np.arange(corpus.n_items), -sims))


def top_k_items(corpus: Corpus, query: SparseVector, k: int) -> list[tuple[int, float]]:
    """The k most similar items as (item_id, cosine) pairs."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sims = corpus.cosine_against(query)
    k = min(k, corpus.n_items)
    # argpartition for the candidate set, then exact ordering inside it.
    part = np.argpartition(-sims, k - 1)[:k]
    order = part[np.lexsort((part, -sims[part]))]
    return [(int(i), float(sims[i])) for i in order]
