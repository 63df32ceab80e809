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

Accounting is sequential-equivalent: bands execute in order, so a
discovery's ``hops`` is its hop count within its band's probe plus
every message the earlier bands spent — the same "messages until first
reached" metric :func:`repro.core.search.retrieve` reports.

:func:`multi_probe_retrieve_many` is the storm form: band b of every
query goes through one :func:`repro.core.search_batch.retrieve_many`
call (per-query ``start_keys``), so co-bucketed queries share routes,
walk frontiers, and bulk scoring.  The batch engine's equivalence
contract makes the merged results identical to the scalar loop — the
``lsh --check`` gate asserts exactly that.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..core.search import Direction, Discovery, RetrieveResult, retrieve_columns
from ..core.search_batch import retrieve_many

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
    node_ids, scores, hops)`` columns.  First band wins on duplicate
    items (earlier bands reach an item first in the sequential execution
    order), with the winner's hops offset by the messages all earlier
    bands spent.  The union is ranked by (score desc, item id) and cut
    to ``amount``; only the survivors become :class:`Discovery` objects.
    """
    merged = RetrieveResult()
    offsets = []
    for r in band_results:
        offsets.append(merged.messages)
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


def _discovery_columns(discoveries: Sequence[Discovery]) -> list[list]:
    return [
        [d.item_id for d in discoveries],
        [d.node_id for d in discoveries],
        [d.score for d in discoveries],
        [d.hops for d in discoveries],
    ]


def _probe_width(system: "Meteorograph", probe_width: Optional[int]) -> int:
    width = (
        probe_width if probe_width is not None else system.config.lsh_probe_width
    )
    if width < 0:
        raise ValueError(f"probe_width must be >= 0, got {width}")
    return width


def multi_probe_retrieve(
    system: "Meteorograph",
    origin: int,
    query: "SparseVector",
    amount: Optional[int],
    *,
    probe_width: Optional[int] = None,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    direction: Direction = "both",
) -> RetrieveResult:
    """Probe every band's bucket neighborhood, union, rank globally.

    Each band runs an unbounded (``amount=None``) retrieve over exactly
    ``1 + probe_width`` buckets: its home plus ``probe_width`` ring
    neighbors (``max_walk=width``, ``patience=width+1`` so patience
    never cuts the walk short of the width budget).  The per-query
    message bill is therefore L routes + L·width walk hops + replies —
    the bounded multi-probe cost the frontier experiment reports.
    """
    width = _probe_width(system, probe_width)
    keys = system.naming.probe_keys_for(query)
    obs = system.network.obs
    with obs.tracer.span(
        "retrieve_multiprobe",
        origin=origin, amount=amount, bands=len(keys), width=width,
    ) as sp:
        bands = [
            retrieve_columns(
                system, origin, query, None,
                require_all=require_all, min_score=min_score,
                patience=width + 1, max_walk=width,
                start_key=key, direction=direction,
            )
            for key in keys
        ]
        merged = _merge_bands(
            [r for r, _ in bands], [hits.columns for _, hits in bands], amount
        )
        obs.metrics.counter("lsh.probe.bands", len(keys))
        obs.metrics.counter(
            "lsh.probe.candidates", sum(hits.found for _, hits in bands)
        )
        obs.metrics.counter("lsh.probe.unioned", len(merged.discoveries))
        sp.set(found=merged.found, messages=merged.messages,
               complete=merged.complete)
    return merged


def multi_probe_retrieve_many(
    system: "Meteorograph",
    origin: Union[int, Sequence[int]],
    queries: Sequence["SparseVector"],
    amount: Optional[int],
    *,
    probe_width: Optional[int] = None,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    direction: Direction = "both",
) -> list[RetrieveResult]:
    """Batch multi-probe: one shared ``retrieve_many`` sweep per band.

    Element-wise equal to ``[multi_probe_retrieve(system, o_i, q_i,
    amount, ...) for i]`` — per-band results are identical by the batch
    engine's equivalence contract, and the merge is the same pure fold.
    """
    if not queries:
        return []
    width = _probe_width(system, probe_width)
    if isinstance(origin, (int, np.integer)):
        origins: Union[int, list[int]] = int(origin)
    else:
        origins = [int(o) for o in origin]
    probe_keys = [system.naming.probe_keys_for(q) for q in queries]
    bands = system.naming.n_keys
    obs = system.network.obs
    with obs.tracer.span(
        "retrieve_multiprobe",
        queries=len(queries), amount=amount, bands=bands, width=width,
    ) as sp:
        per_band = [
            retrieve_many(
                system, origins, queries, None,
                require_all=require_all, min_score=min_score,
                patience=width + 1, max_walk=width,
                start_keys=[keys[b] for keys in probe_keys],
                direction=direction,
            )
            for b in range(bands)
        ]
        results = []
        for i in range(len(queries)):
            band_results = [per_band[b][i] for b in range(bands)]
            results.append(_merge_bands(
                band_results,
                [_discovery_columns(r.discoveries) for r in band_results],
                amount,
            ))
        obs.metrics.counter("lsh.probe.bands", bands * len(queries))
        obs.metrics.counter(
            "lsh.probe.candidates",
            sum(r.found for band in per_band for r in band),
        )
        obs.metrics.counter(
            "lsh.probe.unioned", sum(r.found for r in results)
        )
        sp.set(found=sum(r.found for r in results))
    return results
