"""Experiment X-BUILD: million-item build-path scaling.

The build path is everything between "here is a corpus" and "every item
sits on its home": the Eq. 1–5 angle pass, the key map, the batched
route, and finite-capacity placement.  ROADMAP flagged the two scaling
cliffs this experiment pins:

* the whole-corpus angle pass materialises O(total nnz) temporaries —
  gigabytes at the paper's 2.76M-item trace — fixed by the chunked
  streaming pass (``chunk_rows``), which must be *bit-identical*;
* the finite-capacity branch of ``batch_publish`` ran the Fig. 2
  displacement chains one item at a time in Python — fixed by the
  cascade placement engine (:mod:`repro.core.cascade`), which must be
  *placement-identical*.

One row per corpus size: key-pipeline timings (whole vs chunked) with
the bit-identity flag, and tight-capacity publish
wall-clock for the cascade engine, with the sequential-chain branch
timed alongside up to ``seq_max_items`` (it is quadratic-ish in load;
at 500K items it would take minutes for a number the small sizes
already establish).  The committed ``results/buildscale.csv`` is the
acceptance artifact for the ≥3× cascade claim — the speedup column at
the bench size (6K) — and for the ≥500K-item reach of the pipeline.

Capacity is held at ~4/3 of the ideal load c = items/nodes, so a
constant fraction of homes overflow and chain length stays
size-independent: the curve isolates how the *engines* scale, not how
overload grows.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import Meteorograph, MeteorographConfig, PlacementScheme
from ..core.angles import absolute_angles
from ..workload import WorldCupParams, generate_trace
from .common import RowSet, sample_of, scale_factor, timer

__all__ = ["run_build_scale"]

#: Default corpus sizes (items) at REPRO_SCALE=1.  The last row is the
#: ISSUE's ≥500K acceptance point.
DEFAULT_SIZES = (6_000, 24_000, 96_000, 500_000)


def _build(corpus, n_nodes: int, capacity: int, seed: int) -> Meteorograph:
    rng = np.random.default_rng(seed)
    return Meteorograph.build(
        n_nodes,
        corpus.dim,
        rng=rng,
        sample=sample_of(corpus, rng),
        config=MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH, node_capacity=capacity
        ),
    )


def _placements(system: Meteorograph) -> dict[int, frozenset]:
    return {
        node.node_id: frozenset(node.item_ids())
        for node in system.network.nodes()
        if len(node)
    }


def run_build_scale(
    *,
    sizes: "tuple[int, ...] | None" = None,
    seq_max_items: int = 25_000,
    chunk_rows: int = 65_536,
    seed: int = 19980724,
) -> RowSet:
    """Rows: one per corpus size, timing the whole build path.

    ``seq_max_items`` bounds where the old per-item chain branch is
    timed for the speedup column; larger rows leave it blank.  The
    placement/accounting equivalence of the two branches is asserted on
    every row where both ran.
    """
    if sizes is None:
        s = scale_factor()
        sizes = tuple(dict.fromkeys(max(500, int(round(n * s))) for n in DEFAULT_SIZES))
    rs = RowSet(
        "Build-path scaling — chunked key pipeline + cascade placement",
        (
            "items",
            "nodes",
            "cap",
            "gen s",
            "angles ms",
            "chunked ms",
            "keys identical",
            "cascade ms",
            "chain ms",
            "speedup",
            "spills",
            "drops",
        ),
    )
    with timer(rs):
        identical_all = True
        for n_items in sizes:
            t0 = time.perf_counter()
            trace = generate_trace(
                WorldCupParams(
                    n_items=n_items, n_keywords=max(300, n_items // 5)
                ),
                seed=seed,
            )
            gen_s = time.perf_counter() - t0
            corpus = trace.corpus

            t0 = time.perf_counter()
            whole = absolute_angles(corpus)
            whole_ms = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()
            chunked = absolute_angles(corpus, chunk_rows=chunk_rows)
            chunked_ms = (time.perf_counter() - t0) * 1e3
            keys_identical = bool(np.array_equal(whole, chunked))
            identical_all = identical_all and keys_identical

            # Ring sized so ideal load c = items/nodes stays ~125 and
            # capacity ~4c/3: overflow fraction (hence chain shape) is
            # held constant across sizes.
            n_nodes = max(250, min(4000, n_items // 125))
            capacity = max(4, int(round((n_items / n_nodes) * 4 / 3)))

            cas_sys = _build(corpus, n_nodes, capacity, seed=seed + 1)
            t0 = time.perf_counter()
            cas_sys.publish_corpus(
                corpus, np.random.default_rng(seed + 2), batch=True, cascade=True
            )
            cascade_ms = (time.perf_counter() - t0) * 1e3
            spills = cas_sys.network.sink.count("displace")
            drops = n_items - cas_sys.network.total_items()

            chain_ms: "float | str" = ""
            speedup: "float | str" = ""
            if n_items <= seq_max_items:
                seq_sys = _build(corpus, n_nodes, capacity, seed=seed + 1)
                t0 = time.perf_counter()
                seq_sys.publish_corpus(
                    corpus,
                    np.random.default_rng(seed + 2),
                    batch=True,
                    cascade=False,
                )
                chain_ms = round((time.perf_counter() - t0) * 1e3, 1)
                speedup = round(chain_ms / cascade_ms, 1)
                assert _placements(seq_sys) == _placements(cas_sys)
                assert seq_sys.network.sink.snapshot() == cas_sys.network.sink.snapshot()

            rs.add(
                n_items,
                n_nodes,
                capacity,
                round(gen_s, 2),
                round(whole_ms, 1),
                round(chunked_ms, 1),
                keys_identical,
                round(cascade_ms, 1),
                chain_ms,
                speedup,
                spills,
                drops,
            )
        rs.notes["chunk_rows"] = chunk_rows
        rs.notes["seq_max_items"] = seq_max_items
        rs.notes["keys_identical_all"] = identical_all
    return rs
