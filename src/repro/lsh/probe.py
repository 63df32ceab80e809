"""NearBucket multi-probe retrieval for multi-key naming schemes.

One query under an L-band scheme has L home buckets — one per band
region.  The probe engine visits each band's home plus its
``probe_width`` ring-adjacent buckets (the §3.3 closest-neighbor walk
*is* the NearBucket probe: overlay leaf sets hand us the adjacent
buckets for free), unions the per-band harvests, and ranks the union
globally.  No rescoring pass is needed for that ranking: every
per-node harvest already runs the one scatter/gather+reduceat scoring
kernel (``LocalVsmIndex.query``/``query_many``/``score_many`` share
it), so scores from different bands are directly comparable and
sorting the union IS the global rescore.

Every band of every query is one walk of the read engine
(:func:`repro.core.search_batch.run`), in one call, band-major: band 0
of every query, then band 1, and so on.  Co-bucketed queries therefore
share routes and walks exactly as ``retrieve_many`` shares them, and the
merge reads the walks' hit columns directly — no per-band
:class:`~repro.core.search.Discovery` is ever built.
:func:`multi_probe_retrieve` is :func:`multi_probe_retrieve_many` of one.

Accounting is sequential-equivalent: a query's bands execute in order,
so a discovery's ``hops`` is its hop count within its band's probe plus
every message the query's earlier bands spent — the same "messages
until first reached" metric :func:`repro.core.search.retrieve` reports.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..core.search import Direction, Discovery, RetrieveResult
from ..core.search_batch import origins_of, run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph
    from ..vsm.sparse import SparseVector

__all__ = ["multi_probe_retrieve", "multi_probe_retrieve_many"]


def _merge_bands(
    band_results: Sequence[RetrieveResult],
    band_columns: Sequence[Sequence[Sequence]],
    amount: Optional[int],
) -> RetrieveResult:
    """Union per-band results into one sequential-equivalent result.

    ``band_columns[b]`` holds band b's hits as parallel ``(item_ids,
    node_ids, scores, hops)`` columns, ``hops`` counted from the band's
    home.  First band wins on duplicate items (earlier bands reach an
    item first in the sequential execution order), with the winner's
    hops offset by its band's route and the messages all earlier bands
    spent.  The union is ranked by (score desc, item id) and cut
    to ``amount``; only the survivors become :class:`Discovery` objects.
    """
    merged = RetrieveResult()
    offsets = []
    for r in band_results:
        offsets.append(merged.messages + r.route_hops)
        merged.route_hops += r.route_hops
        merged.walk_hops += r.walk_hops
        merged.fetch_hops += r.fetch_hops
        merged.reply_messages += r.reply_messages
        merged.visited.extend(r.visited)
        merged.degradation_level = max(
            merged.degradation_level, r.degradation_level
        )
    item_ids, node_ids, scores, hops = (
        list(chain.from_iterable(col)) for col in zip(*band_columns)
    )
    ids = np.array(item_ids, dtype=np.int64)
    # Bands are concatenated in execution order and np.unique reports
    # each id's first occurrence, i.e. its earliest band.
    first = np.unique(ids, return_index=True)[1]
    rank = np.lexsort((ids[first], -np.array(scores, dtype=np.float64)[first]))
    top = first[rank]
    if amount is not None:
        merged.complete = top.size >= amount
        top = top[:amount]
    else:
        merged.complete = all(r.complete for r in band_results)
    spent = np.repeat(offsets, [len(c[0]) for c in band_columns])
    merged.discoveries = [
        Discovery(item_ids[i], node_ids[i], scores[i], hops[i] + s)
        for i, s in zip(top.tolist(), spent[top].tolist())
    ]
    return merged


def _probe(
    system: "Meteorograph",
    origins: Sequence[int],
    queries: Sequence["SparseVector"],
    amount: Optional[int],
    *,
    probe_width: Optional[int] = None,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    direction: Direction = "both",
) -> list[RetrieveResult]:
    """Probe every band's bucket neighborhood, union, rank globally.

    Each band runs an unbounded (``amount=None``) walk over exactly
    ``1 + probe_width`` buckets: its home plus ``probe_width`` ring
    neighbors (``max_walk=width``, ``patience=width+1`` so patience
    never cuts the walk short of the width budget).  The per-query
    message bill is therefore L routes + L·width walk hops + replies —
    the bounded multi-probe cost the frontier experiment reports.
    """
    width = system.config.lsh_probe_width if probe_width is None else probe_width
    if width < 0:
        raise ValueError(f"probe_width must be >= 0, got {width}")
    n = len(queries)
    bands = system.naming.n_keys
    probe_keys = [system.naming.probe_keys_for(q) for q in queries]
    obs = system.network.obs
    with obs.tracer.span(
        "retrieve_multiprobe", queries=n, amount=amount, bands=bands, width=width,
    ) as sp:
        walks = run(
            system,
            list(origins) * bands,
            list(queries) * bands,
            [keys[b] for b in range(bands) for keys in probe_keys],
            [direction] * (n * bands),
            None,
            require_all=require_all, min_score=min_score,
            patience=width + 1, max_walk=width,
        )
        results = []
        for i in range(n):
            band_walks = walks[i::n]
            results.append(_merge_bands(
                [r for r, _ in band_walks], [h.columns for _, h in band_walks], amount
            ))
        obs.metrics.counter("lsh.probe.bands", bands * n)
        obs.metrics.counter("lsh.probe.candidates", sum(h.found for _, h in walks))
        obs.metrics.counter("lsh.probe.unioned", sum(r.found for r in results))
        sp.set(found=sum(r.found for r in results))
    return results


def multi_probe_retrieve(
    system: "Meteorograph", origin: int, query: "SparseVector", amount: Optional[int],
    **options,
) -> RetrieveResult:
    """Multi-probe one query; ``options`` as for
    :func:`multi_probe_retrieve_many`."""
    return _probe(system, (origin,), (query,), amount, **options)[0]


def multi_probe_retrieve_many(
    system: "Meteorograph",
    origin: Union[int, Sequence[int]],
    queries: Sequence["SparseVector"],
    amount: Optional[int],
    **options,
) -> list[RetrieveResult]:
    """Multi-probe a storm; ``origin`` is one node id for every query or
    one per query.  ``options`` are ``probe_width`` (default
    ``MeteorographConfig.lsh_probe_width``), ``require_all``,
    ``min_score`` and ``direction``."""
    return _probe(system, origins_of(origin, len(queries)), queries, amount, **options)
