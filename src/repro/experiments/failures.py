"""Experiment F-REL: availability under node failures (§4.3).

Replicate every item r ∈ {1, 2, 4, 8} times, fail a fraction of the
nodes, and measure the success ratio of single-item queries from
surviving nodes.  Paper shape targets: at 50% failures, ~80% / ~95% /
~99% availability for 2 / 4 / 8 copies; even at 90% failures the
curves stay ordered (paper: 20% / 30% / 45%).

The failure wave is a :class:`repro.maint.BatchKill` scenario driven
through the event engine — the same declarative machinery the ``faults``
gate row and the churn experiment use.  Its default behaviour
stabilizes the overlay after the wave (repairs routing state over live
nodes), matching §3.6's assumption that Tornado routing delivers
queries to the numerically closest *live* home, where a surviving
replica is found whenever one exists.
"""

from __future__ import annotations

import numpy as np

from ..core import PlacementScheme
from ..maint import BatchKill, run_scenarios
from ..sim.engine import Simulator
from ..workload import WorldCupTrace
from .common import RowSet, build_system, default_trace, timer

__all__ = ["run_failures"]

REPLICA_COUNTS = (1, 2, 4, 8)
FAIL_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run_failures(
    trace: WorldCupTrace | None = None,
    *,
    n_nodes: int = 1000,
    replica_counts: tuple[int, ...] = REPLICA_COUNTS,
    fail_fractions: tuple[float, ...] = FAIL_FRACTIONS,
    queries: int = 300,
    seed: int = 43,
    stabilize: bool = True,
) -> RowSet:
    """§4.3 rows: (replicas, % failed, availability, 1 − p^k bound)."""
    tr = trace if trace is not None else default_trace()
    rs = RowSet(
        "§4.3 — query availability under failures",
        ("replicas", "failed %", "availability", "1-p^k bound"),
    )
    with timer(rs):
        for replicas in replica_counts:
            for frac in fail_fractions:
                rng = np.random.default_rng(seed + replicas * 1000 + int(frac * 100))
                system = build_system(
                    tr,
                    n_nodes,
                    PlacementScheme.UNUSED_HASH_HOT,
                    rng=rng,
                    replication_factor=replicas,
                    simulator=Simulator(),
                )
                system.publish_corpus(tr.corpus, rng)
                run_scenarios(
                    system,
                    [BatchKill(fraction=frac, at=0.0, stabilize=stabilize)],
                    rng,
                    horizon=0.0,
                )
                ok = 0
                for _ in range(queries):
                    item = int(rng.integers(0, tr.corpus.n_items))
                    origin = system.random_origin(rng)
                    res = system.find(origin, item, max_walk=replicas * 4)
                    if res.found:
                        ok += 1
                rs.add(
                    replicas,
                    int(frac * 100),
                    round(ok / queries, 3),
                    round(1.0 - frac**replicas, 3),
                )
        rs.notes["queries_per_cell"] = queries
        rs.notes["N"] = n_nodes
        rs.notes["stabilized"] = stabilize
    return rs
