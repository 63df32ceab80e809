"""Batch retrieval: many similarity queries in one shared sweep.

The write path does one route + one sorted ring sweep for a whole
corpus (``batch_publish``, the cascade engine); this module is the read
counterpart.  A Zipf query storm concentrates thousands of queries on a
handful of hot keys, and the sequential loop pays a full route, walk,
and per-node index query for every one of them.  :func:`retrieve_many`
shares the work three ways:

1. **route resolution** — queries are grouped by content and sorted by
   key; each distinct (origin, key) pair is routed once through the
   epoch-cached route kernel and its path is *replayed* (same message
   charges, no recomputation) for every duplicate;
2. **one walk per (home, content)** — past the home nothing depends on
   the origin, so every group that reaches a home with the same content
   rides one walk (one seen set, one set of dry/walked counters, one
   hit list) through the memoised
   :meth:`~repro.overlay.base.Overlay.walk_order`, advanced wave by
   wave; each wave bills the riders' sends in one
   :meth:`~repro.sim.network.Network.charge_bulk`, and each group's
   result is materialised from the walk with its own ``route_hops``
   as the ``hops`` offset;
3. **index scoring** — each consulted node ranks the distinct active
   contents in one vectorised
   :meth:`~repro.vsm.index.LocalVsmIndex.query_many` pass instead of
   one ``local_index_query`` per query.

**Equivalence contract** (DESIGN.md, "Read path"): every returned
:class:`~repro.core.search.RetrieveResult` — discoveries, scores,
per-item hops, route/walk hops, reply messages, visited lists,
completeness — and every message charged on the network sink is
identical to what N sequential :func:`~repro.core.search.retrieve`
calls would produce.  This holds because, absent back-pressure and
retries, routing is deterministic and walks/harvests are read-only:
duplicate queries are *replays*, not approximations.

**Fallback**: under directory pointers, admission control, link faults,
replication, or a retry policy the per-query protocols have side
effects or non-replayable message charges, so the engine degrades to
the exact sequential loop — mirroring ``batch_publish``'s guard — and
counts the queries under ``retrieve.batch.fallback.<reason>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..vsm.sparse import SparseVector
from .search import (
    Direction, Discovery, Harvest, RetrieveResult, retrieve, retrieve_with_pointers,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..vsm.index import Ranking
    from .meteorograph import Meteorograph

__all__ = ["retrieve_many"]


class _Walk(Harvest):
    """One ``(home, query content)`` walk: the harvest (each hit's
    ``hops`` is the walk depth it was met at; a group adds its own
    ``route_hops``) and every counter past the home, shared by all
    groups that reach it."""

    __slots__ = ("query", "riders", "dry", "walked", "visited", "replies", "complete")

    def __init__(self, query: SparseVector, home: int) -> None:
        super().__init__()
        self.query = query
        #: Groups riding this walk — one send each per wave.
        self.riders = 0
        self.dry = 0
        self.walked = 0
        self.visited = [home]
        self.replies = 0
        self.complete = True

    def harvest(self, ranking: "Ranking", node_id: int, amount: Optional[int]) -> int:
        """Fold one node's full ranking in at the current depth."""
        fresh = self.fold(ranking, node_id, self.walked, amount)
        if fresh:
            self.replies += 1
        return fresh


def _sequential(
    system: "Meteorograph",
    origins: list[int],
    queries: Sequence[SparseVector],
    amount: Optional[int],
    kwargs: dict,
    start_keys: Optional[Sequence[int]] = None,
) -> list[RetrieveResult]:
    fn = retrieve_with_pointers if system.config.directory_pointers else retrieve
    if start_keys is None:
        return [fn(system, o, q, amount, **kwargs) for o, q in zip(origins, queries)]
    return [
        fn(system, o, q, amount, **{**kwargs, "start_key": int(k)})
        for o, q, k in zip(origins, queries, start_keys)
    ]


def retrieve_many(
    system: "Meteorograph",
    origin: Union[int, Sequence[int]],
    queries: Sequence[SparseVector],
    amount: Optional[int],
    *,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    patience: int = 8,
    max_walk: Optional[int] = None,
    start_key: Optional[int] = None,
    start_keys: Optional[Sequence[int]] = None,
    direction: Direction = "both",
) -> list[RetrieveResult]:
    """Run many retrieves as one shared sweep; results element-wise equal
    to ``[retrieve(system, o_i, q_i, amount, ...) for i]``.

    ``origin`` is a single node id applied to every query, or one id per
    query.  ``start_keys`` gives one start key per query (the multi-probe
    engine sends each query to its own band bucket); ``start_key`` is the
    shared-scalar form, mutually exclusive with it.  All other knobs are
    shared across the batch (bucket by knob and call once per bucket to
    vary them — that is what the facade's ``Meteorograph.retrieve_many``
    does for first-hop start keys).
    """
    if amount is not None and amount < 1:
        raise ValueError(f"amount must be >= 1 or None, got {amount}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if start_key is not None and start_keys is not None:
        raise ValueError("pass start_key or start_keys, not both")
    if start_keys is not None and len(start_keys) != len(queries):
        raise ValueError(
            f"{len(start_keys)} start_keys for {len(queries)} queries"
        )
    if isinstance(origin, (int, np.integer)):
        origins = [int(origin)] * len(queries)
    else:
        origins = [int(o) for o in origin]
        if len(origins) != len(queries):
            raise ValueError(
                f"{len(origins)} origins for {len(queries)} queries"
            )
    if not queries:
        return []
    kwargs = dict(
        require_all=require_all, min_score=min_score, patience=patience,
        max_walk=max_walk, start_key=start_key, direction=direction,
    )
    # Sequential fallback: these features make per-query execution
    # non-replayable (shedding and retries charge data-dependent extra
    # messages; pointer mode is a different protocol; replication
    # changes harvest targets under failures; link faults drop or
    # duplicate data-dependently per message) — same guard shape as
    # batch_publish.  The first matching reason is the one announced.
    network = system.network
    obs = network.obs
    metrics = obs.metrics
    reason = (
        "pointers" if system.config.directory_pointers
        else "admission" if network.admission is not None
        else "link_faults" if network.link_faults is not None
        else "replication" if system.replication is not None
        else "retry" if system.config.retry_policy is not None
        else None
    )
    if reason is not None:
        metrics.counter(f"retrieve.batch.fallback.{reason}", len(queries))
        return _sequential(system, origins, queries, amount, kwargs, start_keys)

    # Destination lists only feed the net.node_inbox bucket.
    obs_on = network._obs_on
    results: list[Optional[RetrieveResult]] = [None] * len(queries)
    with obs.tracer.span(
        "retrieve_batch", queries=len(queries), amount=amount
    ) as sp:
        with metrics.timer("kernel.retrieve_batch"):
            # -- 1. dedup: one group (its member indices) per unique
            #       (key, origin, content).  The key joins the identity
            #       because per-query ``start_keys`` can send identical
            #       content to different band buckets; content-only
            #       query_key resolution is still memoised so duplicates
            #       cost one key computation ---------------------------
            groups: dict[tuple, list[int]] = {}
            qkey_memo: dict[tuple, int] = {}
            for i, (o, q) in enumerate(zip(origins, queries)):
                content = (q.indices.tobytes(), q.values.tobytes())
                if start_keys is not None:
                    key = int(start_keys[i])
                elif start_key is not None:
                    key = start_key
                else:
                    key = qkey_memo.get(content)
                    if key is None:
                        key = qkey_memo[content] = system.query_key(q)
                groups.setdefault((key, o, content), []).append(i)

            # -- 2. route resolution, key-sorted, one live route per
            #       unique (key, origin); a group sharing it replays the
            #       path.  Origin only decides this prefix and the
            #       ``hops`` offset: groups reaching one home with one
            #       content join one walk ------------------------------
            route_cache: dict[tuple[int, int], object] = {}
            walks: dict[tuple, _Walk] = {}
            by_home: dict[int, list[_Walk]] = {}
            routed: list[tuple[object, _Walk, list[int]]] = []
            for gkey, members in sorted(groups.items(), key=lambda kv: kv[0][:2]):
                key, o, content = gkey
                route = route_cache.get((key, o))
                if route is None:
                    route = system.deliver_home(o, key, kind="retrieve")
                    route_cache[key, o] = route
                else:
                    network.charge_bulk(
                        "retrieve", route.hops,
                        route.path[1:] if obs_on else None,
                    )
                assert route.home is not None
                w = walks.get((route.home, content))
                if w is None:
                    w = walks[route.home, content] = _Walk(
                        queries[members[0]], route.home
                    )
                    by_home.setdefault(route.home, []).append(w)
                w.riders += 1
                routed.append((route, w, members))

            # -- 3. per home: harvest, then advance all co-located
            #       walks through the shared walk order in waves; each
            #       node ranks the distinct contents only, and a wave
            #       bills every rider's send in one charge per walk
            #       (liveness is checked here; no admission, no faults) --
            with metrics.timer("kernel.walk"):
                for home, walkers in by_home.items():
                    rankings = system.state(home).index.query_many(
                        [w.query for w in walkers],
                        require_all=require_all, min_score=min_score,
                    )
                    for w, ranked in zip(walkers, rankings):
                        w.harvest(ranked, home, amount)
                    for neighbor in system.overlay.walk_order(home, direction):
                        if not network.is_alive(neighbor):
                            continue
                        active: list[_Walk] = []
                        for w in walkers:
                            if amount is not None and w.found >= amount:
                                continue
                            if max_walk is not None and w.walked >= max_walk:
                                w.complete = amount is None
                                continue
                            if amount is None and w.dry >= patience:
                                continue
                            active.append(w)
                        walkers = active
                        if not walkers:
                            break
                        for w in walkers:
                            network.charge_bulk(
                                "retrieve", w.riders,
                                [neighbor] * w.riders if obs_on else None,
                            )
                            w.walked += 1
                            w.visited.append(neighbor)
                        rankings = system.state(neighbor).index.query_many(
                            [w.query for w in walkers],
                            require_all=require_all, min_score=min_score,
                        )
                        for w, ranked in zip(walkers, rankings):
                            fresh = w.harvest(ranked, neighbor, amount)
                            w.dry = 0 if fresh else w.dry + 1
                for w in walks.values():
                    if amount is not None and w.found < amount:
                        w.complete = False

            # -- 4. materialise per group: hops = route_hops + walked_at,
            #       Discovery objects shared per distinct route_hops,
            #       fresh lists per result; duplicate members replay
            #       their route + walk bill in one bulk charge ----------
            replayed = 0
            shared: dict[tuple[_Walk, int], list[Discovery]] = {}
            for route, w, members in routed:
                base = route.hops
                found = shared.get((w, base))
                if found is None:
                    found = shared[w, base] = w.discoveries(base)
                for i in members:
                    results[i] = RetrieveResult(
                        discoveries=list(found),
                        route_hops=base,
                        walk_hops=w.walked,
                        reply_messages=w.replies,
                        visited=list(w.visited),
                        complete=w.complete,
                    )
                dups = len(members) - 1
                if dups:
                    replayed += dups
                    network.charge_bulk(
                        "retrieve", dups * (base + w.walked),
                        (route.path[1:] + w.visited[1:]) * dups
                        if obs_on else None,
                    )
        metrics.counter("retrieve.batch.queries", len(queries))
        metrics.counter("retrieve.batch.groups", len(groups))
        metrics.counter("retrieve.batch.walks", len(walks))
        metrics.counter("retrieve.batch.homes", len(by_home))
        metrics.counter("retrieve.batch.replayed", replayed)
        sp.set(
            groups=len(groups),
            walks=len(walks),
            homes=len(by_home),
            found=sum(r.found for r in results),
        )
    return results
