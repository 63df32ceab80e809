"""Uniform random node placement, the tests' proximity latency model.

Latency is euclidean distance in a square — the classic simulation
stand-in for RTT.  The routing-memo and route oracles build proximity
overlays on it.
"""

from typing import Sequence

import numpy as np

from repro.sim.topology import LatencyMap


class EuclideanPlane(LatencyMap):
    """Uniform random placement in a ``side × side`` square."""

    def __init__(self, side: float = 100.0) -> None:
        super().__init__()
        if side <= 0:
            raise ValueError(f"side must be > 0, got {side}")
        self.side = side

    def place_random(self, node_ids: Sequence[int], rng: np.random.Generator) -> None:
        pts = rng.uniform(0.0, self.side, size=(len(node_ids), 2))
        for nid, p in zip(node_ids, pts):
            self.place(nid, p)
