"""Experiment X-BUILD: million-item build-path scaling.

The build path is everything between "here is a corpus" and "every item
sits on its home": the Eq. 1–5 angle pass, the key map, the batched
route, and finite-capacity placement.  ROADMAP flagged the two scaling
cliffs this experiment pins:

* the whole-corpus angle pass materialises O(total nnz) temporaries —
  gigabytes at the paper's 2.76M-item trace — fixed by the chunked
  streaming pass (``chunk_rows``), which must be *bit-identical*;
* finite-capacity placement ran the Fig. 2 displacement chains one
  item at a time in Python — fixed by the cascade placement engine
  (:mod:`repro.core.cascade`), which must be *placement-identical*.

One row per corpus size: key-pipeline timings (whole vs chunked) with
the bit-identity flag, and tight-capacity publish wall-clock for the
corpus publish, with the same corpus published as batches of one
(``Meteorograph.publish`` row by row: a route and an unshared chain per
item) timed alongside up to ``seq_max_items`` (it is quadratic-ish in
load; at 500K items it would take minutes for a number the small sizes
already establish).  Where both run, placements and the ``displace``
bill must be identical, and an observability-on twin must show the
cascade engine placed every item.  The committed
``results/buildscale.csv`` is the acceptance artifact for the cascade
speedup at the bench size (6K) and for the ≥500K-item reach of the
pipeline.

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

__all__ = [
    "run_build_scale",
    "build_cell",
    "placements",
    "publish_singly",
    "cascade_engaged",
]

#: Default corpus sizes (items) at REPRO_SCALE=1.  The last row is the
#: ISSUE's ≥500K acceptance point.
DEFAULT_SIZES = (6_000, 24_000, 96_000, 500_000)


def build_cell(
    corpus, n_nodes: int, capacity: int, seed: int, *, observability: bool = False
) -> Meteorograph:
    """The build-path cell's ring: ``UNUSED_HASH`` at per-node ``capacity``."""
    rng = np.random.default_rng(seed)
    return Meteorograph.build(
        n_nodes,
        corpus.dim,
        rng=rng,
        sample=sample_of(corpus, rng),
        config=MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH,
            node_capacity=capacity,
            observability=observability,
        ),
    )


def placements(system: Meteorograph) -> dict[int, frozenset]:
    return {
        node.node_id: frozenset(node.item_ids())
        for node in system.network.nodes()
        if len(node)
    }


def publish_singly(system: Meteorograph, corpus, rng: np.random.Generator) -> None:
    """``corpus`` as batches of one: ``publish`` row by row (item id =
    row), every row from one live origin drawn from ``rng``."""
    origin = system.random_origin(rng)
    for i, kw, w in corpus.row_slices():
        system.publish(origin, i, kw, w)


def cascade_engaged(corpus, n_nodes: int, capacity: int, seed: int) -> bool:
    """Whether the cascade engine placed every item of a corpus publish
    (``publish.cascade_items`` on an observability-on twin) — a
    deterministic check that routing savings alone cannot pass."""
    system = build_cell(corpus, n_nodes, capacity, seed, observability=True)
    system.publish_corpus(corpus, np.random.default_rng(seed + 1))
    counters = system.obs.metrics.counters
    return counters.get("publish.cascade_items") == corpus.n_items


def run_build_scale(
    *,
    sizes: "tuple[int, ...] | None" = None,
    seq_max_items: int = 25_000,
    chunk_rows: int = 65_536,
    seed: int = 19980724,
) -> RowSet:
    """Rows: one per corpus size, timing the whole build path.

    ``seq_max_items`` bounds where the batches-of-one publish is timed
    for the speedup column; larger rows leave it blank.  Where it runs,
    placements and the ``displace`` bill are asserted identical and the
    cascade engine engaged.
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
            "singly ms",
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

            cas_sys = build_cell(corpus, n_nodes, capacity, seed=seed + 1)
            t0 = time.perf_counter()
            cas_sys.publish_corpus(corpus, np.random.default_rng(seed + 2))
            cascade_ms = (time.perf_counter() - t0) * 1e3
            spills = cas_sys.network.sink.count("displace")
            drops = n_items - cas_sys.network.total_items()

            singly_ms: "float | str" = ""
            speedup: "float | str" = ""
            if n_items <= seq_max_items:
                one_sys = build_cell(corpus, n_nodes, capacity, seed=seed + 1)
                t0 = time.perf_counter()
                publish_singly(one_sys, corpus, np.random.default_rng(seed + 2))
                singly_ms = round((time.perf_counter() - t0) * 1e3, 1)
                speedup = round(singly_ms / cascade_ms, 1)
                assert placements(one_sys) == placements(cas_sys)
                assert one_sys.network.sink.count("displace") == spills
                assert cascade_engaged(corpus, n_nodes, capacity, seed=seed + 1)

            rs.add(
                n_items,
                n_nodes,
                capacity,
                round(gen_s, 2),
                round(whole_ms, 1),
                round(chunked_ms, 1),
                keys_identical,
                round(cascade_ms, 1),
                singly_ms,
                speedup,
                spills,
                drops,
            )
        rs.notes["chunk_rows"] = chunk_rows
        rs.notes["seq_max_items"] = seq_max_items
        rs.notes["keys_identical_all"] = identical_all
    return rs
