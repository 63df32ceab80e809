"""Closed-form models from the paper, for model-vs-measured checks.

The gate rows overlay these on measurements:

* routing: a lookup takes ``O(log N)`` hops — concretely
  ``log_{2^b} N`` for a ``2^b``-way tree (§1, §4.1);
* reliability: losing an item needs all ``k`` replicas gone —
  availability ``1 − p^k`` at failure fraction ``p`` (§3.6);
* fairness: the Gini coefficient of per-node query load.
"""

from __future__ import annotations

import math

__all__ = ["expected_route_hops", "availability", "gini"]


def expected_route_hops(n_nodes: int, digit_bits: int = 2) -> float:
    """Expected greedy prefix-routing hops: log_{2^b} N."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes == 1:
        return 0.0
    return math.log(n_nodes, 2**digit_bits)


def availability(fail_fraction: float, replicas: int) -> float:
    """§3.6: P(at least one of k copies survives) = 1 − p^k."""
    if not 0.0 <= fail_fraction <= 1.0:
        raise ValueError(f"fail_fraction must be in [0,1], got {fail_fraction}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    return 1.0 - fail_fraction**replicas


def gini(values) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = one
    holder takes all).  Used by the query-load fairness experiment."""
    import numpy as np

    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        raise ValueError("empty sample")
    if (arr < 0).any():
        raise ValueError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * arr).sum()) / (n * total) - (n + 1) / n)
