"""Experiment X-QPS (beyond-paper figure): sustained query throughput.

This experiment measures what sharing buys a read *service*: a
sustained Zipf-skewed keyword-query storm is replayed against one
pre-built, fully published ring, first query by query through
``retrieve`` (the read engine on a batch of one: one route + one walk
per query — the per-request service model) and then through
:func:`repro.core.retrieve_many` at several arrival-window sizes
(requests accumulated for a window, then drained in one call that
replays duplicate routes and walks).

Queries enter through a small gateway set — ``GATEWAY_NODES`` origin
nodes cycled round-robin, the front-end arrangement that makes
(origin, content) duplicates common — so both the route and the walk
memos engage.

Per row the table reports throughput (queries/s) and the latency a
query experiences under that service model: for the sequential cell
each query is timed individually; for a batch cell every query in a
window is charged the window's full drain time (a query completes when
its batch does — batching trades per-query latency floor for
throughput, and the p50/p95 columns make that trade visible).
Latency percentiles come from the obs layer's
:class:`~repro.obs.registry.Distribution` reservoir.

The equivalence contract (``tests/core/test_search_batch.py``) says the
engines must find the same items with the same message bill, so the
``found`` and ``messages`` columns double as an end-to-end cross-check:
``notes`` records whether every cell agreed.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core import PlacementScheme
from ..core.search import retrieve
from ..core.search_batch import retrieve_many
from ..obs.registry import Distribution
from ..workload import WorldCupTrace, ZipfSampler, keyword_query, nth_popular_keyword
from .common import RowSet, build_system, default_trace, publish_all, timer

__all__ = ["run_qps", "qps_storm", "qps_cell", "GATEWAY_NODES"]

#: Front-end gateway size: queries originate from this many nodes,
#: cycled round-robin (the ``read-storm`` bench workload uses the same
#: arrangement).
GATEWAY_NODES = 64

#: Default arrival windows (queries drained per batch call).  1 is the
#: sequential cell and is always run; the rest show how throughput and
#: per-query latency move as the window grows.
DEFAULT_WINDOWS = (32, 128, 512)


def qps_storm(
    trace: WorldCupTrace,
    system,
    *,
    n_nodes: int,
    queries: int,
    skew: float,
    top_keywords: int,
    seed: int,
) -> tuple[list[int], list]:
    """Zipf keyword storm + gateway origins against a published ring.

    Query popularity follows Zipf(``skew``) over the ``top_keywords``
    most popular keywords whose match count fits the storm cap (the
    same eligibility rule as :func:`..experiments.overload.storm_cell`,
    so tiny ``--scale`` traces fail loudly instead of silently
    degenerating).  Returns ``(origins, query_vectors)``.
    """
    corpus = trace.corpus
    cap = max(8, min(n_nodes, corpus.n_items // 20))
    freqs = corpus.keyword_frequencies()
    eligible = int(np.count_nonzero((freqs > 0) & (freqs <= cap)))
    if eligible == 0:
        raise ValueError(
            f"no keyword matches <= {cap} items at this scale; "
            "raise n_items or lower n_nodes"
        )
    qrng = np.random.default_rng(seed + 1)
    ranks = ZipfSampler(min(top_keywords, eligible), skew).sample(qrng, queries)
    vecs: dict[int, object] = {}
    storm = []
    for r in ranks:
        r = int(r)
        if r not in vecs:
            kw = nth_popular_keyword(corpus, 1 + r, max_matches=cap)
            vecs[r] = keyword_query(trace, [kw])
        storm.append(vecs[r])
    gateway = [system.random_origin(qrng) for _ in range(GATEWAY_NODES)]
    origins = [gateway[i % len(gateway)] for i in range(queries)]
    return origins, storm


def qps_cell(
    system,
    origins: list[int],
    storm: list,
    *,
    window: int,
    amount: Optional[int],
    patience: int,
) -> dict:
    """Replay the storm through one service model and measure it.

    ``window == 1`` is a loop of :func:`~repro.core.search.retrieve`
    (batches of one); ``window > 1`` drains each window of queries with one
    :func:`~repro.core.retrieve_many` call and charges every query in it
    the window's full drain time.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    sink0 = system.network.sink.count("retrieve")
    lat = Distribution()
    found = 0
    t0 = time.perf_counter()
    if window == 1:
        for o, q in zip(origins, storm):
            tq = time.perf_counter()
            res = retrieve(system, o, q, amount, patience=patience)
            lat.record(time.perf_counter() - tq)
            found += len(res.discoveries)
    else:
        for i in range(0, len(storm), window):
            tw = time.perf_counter()
            results = retrieve_many(
                system,
                origins[i : i + window],
                storm[i : i + window],
                amount,
                patience=patience,
            )
            dt = time.perf_counter() - tw
            for res in results:
                lat.record(dt)
                found += len(res.discoveries)
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "qps": len(storm) / elapsed if elapsed > 0 else float("inf"),
        "p50_ms": lat.quantile(0.50) * 1e3,
        "p95_ms": lat.quantile(0.95) * 1e3,
        "mean_ms": lat.mean * 1e3,
        "found": found,
        "messages": system.network.sink.count("retrieve") - sink0,
    }


def run_qps(
    trace: WorldCupTrace | None = None,
    *,
    n_nodes: int = 400,
    queries: int = 1000,
    skew: float = 1.2,
    amount: Optional[int] = None,
    top_keywords: int = 8,
    windows: tuple[int, ...] = DEFAULT_WINDOWS,
    seed: int = 702,
) -> RowSet:
    """Rows per service model: throughput, latency percentiles, speedup.

    One system is built and published once; retrieval is read-only, so
    every cell replays the identical storm against identical state and
    the columns are directly comparable.
    """
    tr = trace if trace is not None else default_trace()
    rs = RowSet(
        "Sustained query throughput — sequential loop vs batch windows",
        (
            "engine", "window", "queries/s", "p50 ms", "p95 ms",
            "mean ms", "found", "messages", "speedup",
        ),
    )
    with timer(rs):
        rng = np.random.default_rng(seed)
        system = build_system(tr, n_nodes, PlacementScheme.UNUSED_HASH, rng=rng)
        publish_all(system, tr, rng)
        origins, storm = qps_storm(
            tr, system, n_nodes=n_nodes, queries=queries, skew=skew,
            top_keywords=top_keywords, seed=seed,
        )
        patience = max(16, n_nodes // 20)
        base = qps_cell(
            system, origins, storm, window=1, amount=amount, patience=patience
        )
        cells = [("sequential", 1, base)]
        for w in dict.fromkeys(min(w, len(storm)) for w in windows):
            if w <= 1:
                continue
            cells.append((
                "batch", w,
                qps_cell(
                    system, origins, storm, window=w, amount=amount,
                    patience=patience,
                ),
            ))
        for engine, w, c in cells:
            rs.add(
                engine,
                w,
                round(c["qps"], 1),
                round(c["p50_ms"], 3),
                round(c["p95_ms"], 3),
                round(c["mean_ms"], 3),
                c["found"],
                c["messages"],
                round(base["elapsed_s"] / c["elapsed_s"], 2),
            )
        rs.notes["N"] = n_nodes
        rs.notes["queries"] = queries
        rs.notes["skew"] = skew
        rs.notes["amount"] = "all" if amount is None else amount
        rs.notes["patience"] = patience
        rs.notes["gateway_nodes"] = GATEWAY_NODES
        rs.notes["found_identical"] = len({c["found"] for _, _, c in cells}) == 1
        rs.notes["messages_identical"] = (
            len({c["messages"] for _, _, c in cells}) == 1
        )
    return rs
