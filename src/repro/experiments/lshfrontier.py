"""Experiment X-LSH (beyond-paper figure): the naming quality/cost frontier.

The paper's Eq. 1–5 naming collapses every vector to one absolute
angle — a many-to-one projection to a single scalar, which is the
recall ceiling the ROADMAP's "LSH naming family" item points at.  This
experiment measures what the :class:`repro.lsh.CosineLshScheme`
actually buys over that baseline **at equal storage budget**:

* the *baseline* cell publishes under absolute-angle naming with
  replication factor L (L stored copies per item, placed at ring
  neighbors of the one angle home) and answers each query with a single
  walk over ``L·(1 + W)`` nodes — the same node-visit budget the LSH
  cell spends;
* the *LSH* cell publishes L band copies per item (the same L× storage)
  and answers with the NearBucket multi-probe: L band homes plus W
  ring-adjacent buckets each.

Sweeping L ∈ {1, 2, 4, 8} maps the frontier: recall@k (against exact
cosine over the corpus) and messages/query per cell.  The expected
shape — and what ``results/lsh.csv`` records — is that the baseline's
recall stays roughly flat in L (replicas are *copies of the same
1-D placement*, so extra storage buys redundancy, not coverage) while
the LSH cells climb with L (each band is an independent chance for a
truly-similar item to collide with the query), at L routes per query
instead of 1.

The L = 1 pair is the sanity anchor: equal storage, equal visits, two
different 1-key namings.
"""

from __future__ import annotations

import numpy as np

from ..core import PlacementScheme
from ..workload import WorldCupTrace
from .common import RowSet, build_system, default_trace, publish_all, timer

__all__ = [
    "run_lsh_frontier", "exact_top_k", "frontier_cell", "frontier_queries", "frontier_pair",
]

#: The storage-budget sweep (bands for LSH, replication factor for the
#: baseline).
DEFAULT_BANDS = (1, 2, 4, 8)


def exact_top_k(corpus, query, k: int) -> list[int]:
    """Ground truth: ids of the k highest-cosine items (score desc,
    id asc; zero-score items excluded, matching ``LocalVsmIndex``'s
    ranked-view contract)."""
    scores = corpus.cosine_against(query)
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    out = []
    for i in order[: max(k * 4, k)]:
        if scores[i] <= 0.0:
            break
        out.append(int(i))
        if len(out) == k:
            break
    return out


def frontier_cell(
    system,
    queries: list,
    truths: list[list[int]],
    origins: list[int],
    k: int,
    *,
    lsh: bool,
    visit_budget: int,
) -> dict:
    """Answer the storm on one system; recall@k + messages/query.

    ``visit_budget`` is the total nodes a query may consult.  The LSH
    facade spends it as L·(1 + W) via multi-probe; the baseline spends
    it as one home + (budget − 1) walked neighbors, with patience
    disabled so both cells consult exactly the budget.
    """
    recalls = []
    messages = []
    found = []
    for q, truth, origin in zip(queries, truths, origins):
        if lsh:
            res = system.retrieve(origin, q, k)
            ids = res.item_ids()
        else:
            res = system.retrieve(
                origin, q, None,
                max_walk=visit_budget - 1, patience=visit_budget + 1,
            )
            ranked = sorted(
                res.discoveries, key=lambda d: (-d.score, d.item_id)
            )[:k]
            ids = [d.item_id for d in ranked]
        hits = len(set(ids) & set(truth))
        recalls.append(hits / len(truth) if truth else 1.0)
        messages.append(res.messages)
        found.append(len(ids))
    return {
        "recall": float(np.mean(recalls)),
        "messages": float(np.mean(messages)),
        "found": float(np.mean(found)),
        "stored": int(system.network.total_items()),
    }


def frontier_queries(corpus, queries: int, k: int, seed: int) -> tuple[list, list]:
    """``queries`` corpus rows sampled without replacement (in id
    order) and their exact top-k truths."""
    qrng = np.random.default_rng(seed)
    qids = np.sort(qrng.choice(corpus.n_items, size=min(queries, corpus.n_items), replace=False))
    storm = [corpus.vector(int(i)) for i in qids]
    return storm, [exact_top_k(corpus, q, k) for q in storm]


def frontier_pair(
    trace: WorldCupTrace,
    storm: list,
    truths: list[list[int]],
    *,
    n_nodes: int,
    k: int,
    bands: int,
    band_bits: int,
    probe_width: int,
    seed: int,
) -> tuple[dict, dict, object, list[int]]:
    """One L of the sweep at equal storage: the absolute-angle cell
    (replication L, one walk over ``L·(1 + W)`` nodes), then the
    cosine-LSH cell. Returns both cells, the LSH system and its origins."""
    cells = []
    for scheme, lsh, overrides in (
        (PlacementScheme.UNUSED_HASH, False, dict(replication_factor=bands)),
        (PlacementScheme.NONE, True, dict(
            naming_scheme="cosine-lsh", lsh_bands=bands, lsh_band_bits=band_bits,
            lsh_seed=seed, lsh_probe_width=probe_width,
        )),
    ):
        system = build_system(
            trace, n_nodes, scheme, rng=np.random.default_rng(seed), **overrides
        )
        publish_all(system, trace, np.random.default_rng(seed + 1))
        orng = np.random.default_rng(seed + 2)
        origins = [system.random_origin(orng) for _ in storm]
        cells.append(frontier_cell(
            system, storm, truths, origins, k,
            lsh=lsh, visit_budget=bands * (1 + probe_width),
        ))
    return cells[0], cells[1], system, origins


def run_lsh_frontier(
    trace: WorldCupTrace | None = None,
    *,
    n_nodes: int = 200,
    queries: int = 80,
    k: int = 10,
    bands: tuple[int, ...] = DEFAULT_BANDS,
    band_bits: int = 7,
    probe_width: int = 2,
    seed: int = 624,
) -> RowSet:
    """Two rows per L: equal-storage baseline vs cosine LSH.

    Queries are corpus rows sampled uniformly; ground truth is exact
    cosine top-k over the whole corpus, so recall@k is absolute, not
    relative between the cells.
    """
    tr = trace if trace is not None else default_trace()
    corpus = tr.corpus
    rs = RowSet(
        "X-LSH — naming quality/cost frontier at equal storage budget",
        ("scheme", "L", "recall@k", "msgs/query", "found/query", "stored"),
    )
    with timer(rs):
        storm, truths = frontier_queries(corpus, queries, k, seed)
        for L in bands:
            b, c, _, _ = frontier_pair(
                tr, storm, truths, n_nodes=n_nodes, k=k, bands=L,
                band_bits=band_bits, probe_width=probe_width, seed=seed,
            )
            for name, cell in (("absolute-angle", b), ("cosine-lsh", c)):
                rs.add(
                    name, L, round(cell["recall"], 4), round(cell["messages"], 2),
                    round(cell["found"], 2), cell["stored"],
                )
        rs.notes["N"] = n_nodes
        rs.notes["queries"] = len(storm)
        rs.notes["k"] = k
        rs.notes["band_bits"] = band_bits
        rs.notes["probe_width"] = probe_width
        rs.notes["budget"] = "L copies stored, L*(1+W) nodes visited, both cells"
    return rs
