"""Physical topology: node coordinates and per-hop latency.

The hop/message counts of the paper's evaluation treat every overlay
hop as equal.  Tornado (like Pastry) is in reality *proximity-aware*:
routing-table entries prefer physically close candidates, shrinking the
end-to-end latency of a route well below hops × average-RTT.  This
module supplies the substrate for measuring that: an embedding of nodes
into a latency space and path-latency accounting.

The embedding the proximity experiment uses is
:class:`TransitStubLike`: clustered points (stub domains around transit
cores), giving the bimodal intra/inter-domain latency distribution real
traces show.  The tests' uniform-square plane lives in
``tests/latency_plane.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = ["LatencyMap", "TransitStubLike", "path_latency"]


class LatencyMap:
    """Pairwise latency oracle over registered node ids."""

    def __init__(self) -> None:
        self._coords: dict[int, np.ndarray] = {}

    def place(self, node_id: int, coord: Sequence[float]) -> None:
        self._coords[node_id] = np.asarray(coord, dtype=np.float64)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._coords

    def __len__(self) -> int:
        return len(self._coords)

    def coordinate(self, node_id: int) -> np.ndarray:
        try:
            return self._coords[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} has no coordinate") from None

    def latency(self, a: int, b: int) -> float:
        """Symmetric pairwise latency (0 for a == b)."""
        if a == b:
            return 0.0
        ca, cb = self.coordinate(a), self.coordinate(b)
        return float(np.linalg.norm(ca - cb))

    def nearest(self, node_id: int, candidates: Iterable[int]) -> Optional[int]:
        """The proximally closest candidate (ties: smaller id)."""
        best: Optional[int] = None
        best_d = float("inf")
        for c in candidates:
            d = self.latency(node_id, c)
            if d < best_d or (d == best_d and (best is None or c < best)):
                best, best_d = c, d
        return best


class TransitStubLike(LatencyMap):
    """Clustered placement: ``n_domains`` stub clusters on a plane.

    Intra-domain distances are small (cluster radius), inter-domain
    distances large (cluster spacing) — the bimodal shape that makes
    proximity-aware routing pay off.
    """

    def __init__(
        self, side: float = 100.0, n_domains: int = 8, domain_radius: float = 3.0
    ) -> None:
        super().__init__()
        if n_domains < 1:
            raise ValueError(f"n_domains must be >= 1, got {n_domains}")
        if not 0 < domain_radius < side:
            raise ValueError("need 0 < domain_radius < side")
        self.side = side
        self.n_domains = n_domains
        self.domain_radius = domain_radius
        self._centers: Optional[np.ndarray] = None
        self.domain_of: dict[int, int] = {}

    def place_random(self, node_ids: Sequence[int], rng: np.random.Generator) -> None:
        self._centers = rng.uniform(0.0, self.side, size=(self.n_domains, 2))
        doms = rng.integers(0, self.n_domains, size=len(node_ids))
        offsets = rng.normal(0.0, self.domain_radius, size=(len(node_ids), 2))
        for nid, d, off in zip(node_ids, doms, offsets):
            self.domain_of[nid] = int(d)
            self.place(nid, self._centers[d] + off)


def path_latency(latency_map: LatencyMap, path: Sequence[int]) -> float:
    """Total latency along a route's node path."""
    return sum(
        latency_map.latency(a, b) for a, b in zip(path, path[1:])
    )
