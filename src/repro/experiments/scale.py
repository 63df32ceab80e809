"""X-SCALE: the sharded simulator against its single-process twin.

The sharded simulator (:mod:`repro.sim.shard`) cuts the key ring into
shards and plans, bills and stores per shard.  This experiment checks
the one thing that harness exists for: a sharded run is **identical**
to the single-process run (placements, message bill, merged loads) at
every shard count.

One row per configuration: the single-process reference first, then one
row per shard count.  ``identical`` is asserted per row by comparing the
message bill, the per-item homes, and the per-node load vector against
the reference.  The timing columns show what partitioning costs when
all shards share one interpreter — the sharded rows are slower by
construction (EXPERIMENTS.md X-SCALE records why there is no
multi-process mode).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..core import PlacementScheme
from ..sim.shard import DEFAULT_HALO, ShardedSimulator
from .common import RowSet, build_system, default_trace, timer

__all__ = ["run_scale"]


def _workload(trace, system, rng, n_queries: int):
    """The X-QPS-shaped query storm: corpus-row queries from random
    gateway nodes (deterministic given ``rng``)."""
    ring = system.overlay.ring.as_array()
    q_idx = rng.integers(0, trace.corpus.n_items, n_queries)
    queries = [trace.corpus.vector(int(i)) for i in q_idx]
    origins = [int(ring[i]) for i in rng.integers(0, ring.size, n_queries)]
    return origins, queries


def run_scale(
    *,
    n_nodes: int = 2_000,
    n_items: int = 20_000,
    n_keywords: int = 4_000,
    n_queries: int = 400,
    amount: Optional[int] = 5,
    max_walk: int = 256,
    shards: Sequence[int] = (1, 2, 4, 8),
    halo: int = DEFAULT_HALO,
    seed: int = 11,
) -> RowSet:
    """Time the publish + retrieve workload single-process vs sharded.

    Columns: ``mode`` ("single" for the reference row, "sharded"
    otherwise), ``shards``, ``build_s`` (system/worker standup), ``publish_s``, ``retrieve_s``,
    ``total_s`` (publish+retrieve, the steady-state cost standup
    amortises away), ``speedup`` (reference total / row total) and
    ``identical`` (1 = bill+placements+loads match the reference).
    """
    rs = RowSet(
        experiment="scale",
        headers=(
            "mode", "shards", "build_s", "publish_s", "retrieve_s",
            "total_s", "speedup", "identical",
        ),
    )
    trace = default_trace(n_items=n_items, n_keywords=n_keywords, scale=1.0)

    def builder():
        return build_system(
            trace, n_nodes, PlacementScheme.UNUSED_HASH,
            rng=np.random.default_rng(seed),
        )

    wl_rng = np.random.default_rng(seed + 1)

    with timer(rs):
        t0 = time.perf_counter()
        single = builder()
        build_s = time.perf_counter() - t0
        origins, queries = _workload(trace, single, wl_rng, n_queries)
        t0 = time.perf_counter()
        ref_publish = single.publish_corpus(
            trace.corpus, np.random.default_rng(seed + 2), batch=True
        )
        publish_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        single.retrieve_many(origins, queries, amount, max_walk=max_walk)
        retrieve_s = time.perf_counter() - t0
        ref_total = publish_s + retrieve_s
        ref_bill = single.network.sink.snapshot()
        ref_homes = [r.home for r in ref_publish]
        ref_loads = single.loads()
        rs.add("single", 1, build_s, publish_s, retrieve_s, ref_total, 1.0, 1)

        for k in shards:
            t0 = time.perf_counter()
            sim = ShardedSimulator(builder, n_shards=k, halo=halo)
            build_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            publish = sim.publish_corpus(trace.corpus, np.random.default_rng(seed + 2))
            publish_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            sim.retrieve_many(origins, queries, amount, max_walk=max_walk)
            retrieve_s = time.perf_counter() - t0
            identical = int(
                sim.sink.snapshot() == ref_bill
                and [r.home for r in publish] == ref_homes
                and bool(np.array_equal(sim.loads(), ref_loads))
            )
            total = publish_s + retrieve_s
            rs.add(
                "sharded", k, build_s, publish_s, retrieve_s, total,
                ref_total / total if total else float("inf"), identical,
            )

    rs.notes.update(
        nodes=n_nodes,
        items=trace.corpus.n_items,
        queries=n_queries,
        amount=amount,
        max_walk=max_walk,
        halo=halo,
        seed=seed,
    )
    return rs
