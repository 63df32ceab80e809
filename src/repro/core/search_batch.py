"""The read engine: Fig. 2 ``_retrieve`` for one query or a whole storm.

Every similarity read runs :func:`run` — :func:`retrieve_many`,
:func:`repro.core.search.retrieve` and
:func:`~repro.core.search.retrieve_with_pointers` (batches of one) and
the band walks of :mod:`repro.lsh.probe`.  Per query it routes to the
home of the start key through
:meth:`~repro.core.meteorograph.Meteorograph.deliver_home` (a home that
sheds the query under back-pressure diverts through
:func:`~repro.overload.degrade.divert_home`), then walks closest
neighbours in key order (:func:`_walk`, the one walk loop) until
``amount`` hits, ``patience`` dry nodes or ``max_walk`` hops.

**Directory pointers** (§3.5.2) are rows of a second per-node index,
``PeerNode.pointers``.  With ``pointers=True`` the walk reads those rows
instead of the node's items under the pointer sweep's stop rules, and
:func:`_fetch` then fetches the promised bodies, one sequential route
per body home, inside the same ``retrieve`` span.

**Sharing.**  In a *replayable* configuration — no admission control,
link faults or retry policy — routing is deterministic and the walk is
read-only (replica copies are rows of the nodes' indexes like any
other), so a storm's duplicates are replays, not
approximations: the route is memoised per ``(key, origin)`` and the
walk per ``(home, content, direction)``, and a memo hit bills its
messages with one :meth:`~repro.sim.network.Network.charge_bulk`
instead of running again (a pointer read shares its sweep; its body
fetches always run).  Any other configuration runs every query
unshared, in input order — :func:`retrieve_many` as one ``retrieve``
(a batch of one) per query — and counts it under
``retrieve.batch.fallback.<reason>`` (the first matching reason).

**Equivalence contract** (DESIGN.md, "Read path"): either way every
:class:`~repro.core.search.RetrieveResult` field and every message
charged is what a sequential loop of single retrieves produces.

**Columns.**  A walk's hits stay a :class:`~repro.core.search.Harvest`
whose ``hops`` are walk depths; each result adds its own
``route_hops`` (a fetched body's ``hops`` add the stage-1 depth of its
pointer to its fetch hops).  :func:`retrieve_many` builds
:class:`Discovery` objects once per (hits, ``route_hops``); the
multi-probe merge reads the columns directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from ..overload.admission import BackpressureError
from ..overload.degrade import divert_home
from ..sim.linkfaults import MessageLossError
from ..vsm.sparse import SparseVector
from .search import (
    Direction, Discovery, Harvest, RetrieveResult, retrieve, retrieve_with_pointers,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["origins_of", "retrieve_many", "run"]

#: One walk: its hits (``hops`` = walk depth), the visited nodes, the
#: walk hops billed, the replies sent, and whether it completed.
Walk = tuple[Harvest, list[int], int, int, bool]

#: A walk's stop rules: the hits one node may contribute (``None`` =
#: every match), the hits that end the walk, and the caps on
#: consecutive dry nodes and on hops (``inf`` = no cap).
Stops = tuple[Optional[int], float, float, float]

_NO_CAP = float("inf")


def _walk(
    system: "Meteorograph",
    query: SparseVector,
    home: int,
    direction: Direction,
    store: str,
    stops: Stops,
    require_all: Optional[Sequence[int]],
    min_score: float,
) -> Walk:
    """Harvest ``home``, then consult its closest neighbours in one
    frame: a visit is one ``Network.send``, one ``LocalVsmIndex.query``
    on the node's ``store`` (``"index"``, its items, or ``"pointers"``,
    its directory-pointer rows; none when the node never held one) and
    — only when the node answered — one ``Harvest.fold``."""
    network = system.network
    send = network.send
    nodes = network._nodes  # noqa: SLF001 - liveness and store peek
    obs = network.obs
    tracer = obs.tracer
    take, want, dry_cap, hop_cap = stops
    hits = Harvest()
    fold = hits.fold
    visited = [home]
    found = 0
    index = getattr(nodes[home], store)
    if index is not None:
        ranking = index.query(
            query, limit=take, require_all=require_all, min_score=min_score
        )
        if ranking.ids.size:
            found = fold(ranking, home, 0, take)
    replies = 1 if found else 0
    complete = True
    dry = 0
    walked = 0
    current = home
    tracing = tracer.enabled
    with obs.metrics.timer("kernel.walk"):
        # The frontier is liveness-unfiltered (``fail()`` does not
        # invalidate membership caches): dead nodes are skipped here.
        for neighbor in system.overlay.walk_order(home, direction):
            node = nodes.get(neighbor)
            if node is None or not node.alive:
                continue
            if found >= want:
                break
            if walked >= hop_cap:
                complete = want == _NO_CAP
                break
            if dry >= dry_cap:
                break
            walked += 1
            try:
                send(current, neighbor, "retrieve")
            except (BackpressureError, MessageLossError):
                # A saturated neighbor shed its consult, or the link
                # dropped it: the message was spent, the node
                # contributed nothing — skip it and keep sweeping from
                # the current position.
                dry += 1
                continue
            current = neighbor
            visited.append(neighbor)
            fresh = 0
            index = getattr(node, store)
            if index is not None:
                ranking = index.query(
                    query,
                    limit=None if take is None else take - found,
                    require_all=require_all,
                    min_score=min_score,
                )
                if ranking.ids.size:
                    fresh = fold(ranking, neighbor, walked, take)
            if tracing:
                tracer.event("walk", node=neighbor, fresh=fresh)
            if fresh:
                found += fresh
                replies += 1
                dry = 0
            else:
                dry += 1
    if found < want < _NO_CAP:  # short of a bounded request
        complete = False
    return hits, visited, walked, replies, complete


def _fetch(
    system: "Meteorograph",
    query: SparseVector,
    home: int,
    promised: Harvest,
    amount: Optional[int],
    result: RetrieveResult,
    require_all: Optional[Sequence[int]],
    min_score: float,
    patience: int,
    max_walk: Optional[int],
) -> Harvest:
    """§3.5.2 stage 2: fetch the bodies the pointer sweep ``promised``.

    One sequential route from the pointer ``home`` per distinct body
    home, ordered by the smallest promised id there; each fetched node
    replies with its matches, and fetching stops once ``amount`` items
    are in — the (1 + k/c)·O(log N) accounting of §3.5.2.  Displacement
    (Fig. 2) may have pushed promised bodies onto a body home's
    neighbours, so the fetch extends with the closest-neighbour walk
    until every promised id is seen or ``max_walk`` (else
    ``max(patience, 4)``) hops.  Bills ``result``'s ``fetch_hops`` and
    ``reply_messages``; returns the bodies found, ``hops`` = the stage-1
    depth of the item's pointer plus its fetch hops.
    """
    network = system.network
    nodes = network._nodes  # noqa: SLF001 - liveness and store peek
    tracer = network.obs.tracer
    home_of = system.overlay.home
    ids, holders, _, depths = promised.columns
    depth_of = dict(zip(ids, depths))
    promised_at: dict[int, list[int]] = {}
    for iid, holder in zip(ids, holders):
        promised_at.setdefault(holder, []).append(iid)
    by_home: dict[int, list[int]] = {}
    for holder, held in promised_at.items():
        for iid, body_key in zip(held, nodes[holder].pointers.publish_keys_of(held)):
            by_home.setdefault(home_of(body_key), []).append(iid)
    hits = Harvest()
    walk_limit = max_walk if max_walk is not None else max(patience, 4)

    def harvest_at(node_id: int, hops: int) -> int:
        index = nodes[node_id].index
        if index is None:
            return 0
        ranking = index.query(
            query,
            limit=None if amount is None else amount - hits.found,
            require_all=require_all,
            min_score=min_score,
        )
        return hits.fold(ranking, node_id, hops, amount)

    for body_home in sorted(by_home, key=lambda h: min(by_home[h])):
        if amount is not None and hits.found >= amount:
            break
        wanted = set(by_home[body_home])
        if tracer.enabled:
            tracer.event("fetch", body_home=body_home, promised=len(wanted))
        try:
            fetch = system.deliver_home(home, body_home, kind="retrieve")
        except BackpressureError:
            # The body holder shed the fetch: its promised items are
            # forfeited this query — a partial result, tagged.
            result.degradation_level = max(result.degradation_level, 1)
            result.complete = False
            continue
        result.fetch_hops += fetch.hops
        result.reply_messages += 1  # the k′-items reply to the pointer home
        terminal = fetch.home
        harvest_at(terminal, fetch.hops)
        missing = wanted - hits.seen
        if not missing:
            continue
        walked = 0
        current = terminal
        for neighbor in system.overlay.walk_order(terminal, "both"):
            node = nodes.get(neighbor)
            if node is None or not node.alive:
                continue
            if not missing or walked >= walk_limit:
                break
            if amount is not None and hits.found >= amount:
                break
            walked += 1
            result.fetch_hops += 1
            try:
                network.send(current, neighbor, kind="retrieve")
            except (BackpressureError, MessageLossError):
                continue
            current = neighbor
            if harvest_at(neighbor, fetch.hops + walked):
                # A contributing neighbour replies, as in the item walk,
                # so §3.5.2 message totals compare across modes.
                result.reply_messages += 1
            missing -= hits.seen
    if amount is not None and hits.found < amount:
        result.complete = False
    found_ids, _, _, hops = hits.columns
    hops[:] = [h + depth_of.get(i, 0) for i, h in zip(found_ids, hops)]
    return hits


def _unshared_reason(system: "Meteorograph") -> Optional[str]:
    """Why routes and walks cannot be replayed here, or ``None`` when the
    configuration is replayable (the first matching reason)."""
    network = system.network
    return (
        "admission" if network.admission is not None
        else "link_faults" if network.link_faults is not None
        else "retry" if system.config.retry_policy is not None
        else None
    )


def run(
    system: "Meteorograph",
    origins: Sequence[int],
    queries: Sequence[SparseVector],
    start_keys: Sequence[Optional[int]],
    directions: Sequence[Direction],
    amount: Optional[int],
    *,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    patience: int = 8,
    max_walk: Optional[int] = None,
    pointers: bool = False,
) -> list[tuple[RetrieveResult, Harvest]]:
    """Retrieve ``queries[i]`` from ``origins[i]``, walking from
    ``start_keys[i]`` (``None`` = the query's own key) in
    ``directions[i]``; per query, its result with an empty
    ``discoveries`` and its hits (``hops`` relative to the route, so a
    hit's Fig. 10(a) hop count is ``route_hops`` plus it).

    ``amount=None`` means "find everything": the walk continues until
    ``patience`` consecutive nodes contribute nothing (the clustering
    property makes a gap of that size strong evidence the band is
    exhausted) or ``max_walk`` nodes were consulted.

    With ``pointers`` the query runs §3.5.2: the walk starts at the
    query's angle key (``None`` start keys) and sweeps the nodes'
    directory-pointer rows under the pointer stop rules, then
    :func:`_fetch` fetches the promised bodies inside the same
    ``retrieve`` span.
    """
    if pointers and not system.config.directory_pointers:
        raise RuntimeError("directory pointers are disabled in this configuration")
    if amount is not None and amount < 1:
        raise ValueError(f"amount must be >= 1 or None, got {amount}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    network = system.network
    obs = network.obs
    metrics = obs.metrics
    span = obs.tracer.span
    reason = _unshared_reason(system)
    if reason is not None:
        metrics.counter(f"retrieve.batch.fallback.{reason}", len(queries))
    # A batch of one has nothing to share.
    shared = reason is None and len(queries) > 1
    # The item walk takes at most ``amount`` hits in all and stops at
    # ``patience`` dry nodes only when ``amount`` is None; the pointer
    # sweep takes every matching row at a node and always stops at
    # ``patience`` dry nodes.  Both stop at ``amount`` hits and after
    # ``max_walk`` hops.
    stops: Stops = (
        None if pointers else amount,
        _NO_CAP if amount is None else amount,
        patience if amount is None or pointers else _NO_CAP,
        _NO_CAP if max_walk is None else max_walk,
    )
    store = "pointers" if pointers else "index"
    # Pointers live at the Eq. 5 angle key, items at the publish key.
    key_of = system.query_angle_key if pointers else system.query_key
    mode = {"mode": "pointers"} if pointers else {}
    # Destination lists only feed the net.node_inbox bucket.
    obs_on = network._obs_on  # noqa: SLF001
    charge = network.charge_bulk
    contents: dict[int, tuple] = {}
    query_keys: dict[tuple, int] = {}
    routes: dict[tuple, object] = {}
    walks: dict[tuple, Walk] = {}
    routes_run = walks_run = replayed = 0
    out: list[tuple[RetrieveResult, Harvest]] = []
    for origin, query, key, direction in zip(origins, queries, start_keys, directions):
        content = None
        if shared:
            content = contents.get(id(query))
            if content is None:
                content = contents[id(query)] = (
                    query.indices.tobytes(), query.values.tobytes()
                )
        if key is None:
            key = query_keys.get(content)
            if key is None:
                key = key_of(query)
                if shared:
                    query_keys[content] = key
        with span("retrieve", key=key, origin=origin, amount=amount, **mode) as sp:
            degradation = 0
            route = routes.get((key, origin)) if shared else None
            replay = route is not None
            if replay:
                charge("retrieve", route.hops, route.path[1:] if obs_on else None)
                home, route_hops = route.home, route.hops
            else:
                routes_run += 1
                try:
                    route = system.deliver_home(origin, key, kind="retrieve")
                    home, route_hops = route.home, route.hops
                    if shared:
                        routes[key, origin] = route
                except BackpressureError as exc:
                    # The home (or its breaker) shed the query: degrade
                    # to the nearest admitting key-neighbor, which by
                    # §3.3 clustering holds the next-most-similar band.
                    home, route_hops, degradation = divert_home(
                        system, key, kind="retrieve", origin=origin,
                        exclude=(exc.node_id,),
                    )
                    if home is None:
                        sp.set(found=0, shed=True)
                        shed = RetrieveResult(
                            route_hops=route_hops, complete=False, degradation_level=degradation
                        )
                        out.append((shed, Harvest()))
                        continue
            walk = walks.get((home, content, direction)) if shared else None
            if walk is None:
                walks_run += 1
                walk = _walk(
                    system, query, home, direction, store, stops, require_all, min_score
                )
                if shared:
                    walks[home, content, direction] = walk
                visited = walk[1]
            else:
                charge("retrieve", walk[2], walk[1][1:] if obs_on else None)
                replayed += replay
                visited = list(walk[1])
            hits, _, walk_hops, replies, complete = walk
            result = RetrieveResult(
                route_hops=route_hops, walk_hops=walk_hops, reply_messages=replies,
                visited=visited, complete=complete, degradation_level=degradation,
            )
            fetched = {}
            if pointers:
                # The sweep itself bills no replies; stage 2 decides
                # whether the request was met.
                result.reply_messages, result.complete = 0, True
                hits = _fetch(
                    system, query, home, hits, amount, result,
                    require_all, min_score, patience, max_walk,
                )
                fetched = {"fetch_hops": result.fetch_hops}
            out.append((result, hits))
            sp.set(
                home=home, route_hops=route_hops, walk_hops=walk_hops, **fetched,
                found=hits.found, complete=result.complete,
            )
            if result.degradation_level:
                sp.set(degraded=result.degradation_level)
    metrics.counter("retrieve.batch.queries", len(queries))
    metrics.counter("retrieve.batch.routes", routes_run)
    metrics.counter("retrieve.batch.walks", walks_run)
    metrics.counter("retrieve.batch.replayed", replayed)
    return out


def origins_of(origin: Union[int, Sequence[int]], n: int) -> list[int]:
    """``origin`` as one node id per query; a single id applies to all."""
    if isinstance(origin, (int, np.integer)):
        return [int(origin)] * n
    origins = [int(o) for o in origin]
    if len(origins) != n:
        raise ValueError(f"{len(origins)} origins for {n} queries")
    return origins


def retrieve_many(
    system: "Meteorograph",
    origin: Union[int, Sequence[int]],
    queries: Sequence[SparseVector],
    amount: Optional[int],
    *,
    start_keys: Optional[Sequence[Optional[int]]] = None,
    directions: Optional[Sequence[Direction]] = None,
    pointers: bool = False,
    **options,
) -> list[RetrieveResult]:
    """Run many retrieves through the read engine; results element-wise
    equal to ``[retrieve(system, o_i, q_i, amount, start_key=k_i,
    direction=d_i, ...) for i]`` — or, with ``pointers``, to
    ``retrieve_with_pointers`` with the same arguments.

    ``origin`` is a single node id applied to every query, or one id per
    query.  ``start_keys`` and ``directions`` give one start key
    (``None`` = the query's own key) and one sweep direction per query
    (the multi-probe engine sends each band to its own bucket; the
    facade fills them from §3.5.1 first-hop selection).  ``options``
    (``require_all``, ``min_score``, ``patience``, ``max_walk``) are
    shared across the batch.
    """
    n = len(queries)
    origins = origins_of(origin, n)
    for name, column in (("start_keys", start_keys), ("directions", directions)):
        if column is not None and len(column) != n:
            raise ValueError(f"{len(column)} {name} for {n} queries")
    keys = [None] * n if start_keys is None else start_keys
    sweeps = ["both"] * n if directions is None else directions
    obs = system.network.obs
    with obs.tracer.span("retrieve_batch", queries=n, amount=amount) as sp:
        with obs.metrics.timer("kernel.retrieve_batch"):
            if _unshared_reason(system) is not None:
                # Nothing can be shared: every query is its own group,
                # i.e. a batch of one.
                one = retrieve_with_pointers if pointers else retrieve
                results = [
                    one(system, o, q, amount, start_key=k, direction=d, **options)
                    for o, q, k, d in zip(origins, queries, keys, sweeps)
                ]
            else:
                results = []
                # Discovery objects are built once per (hits,
                # route_hops); every result still owns its list.
                built: dict[tuple[Harvest, int], list[Discovery]] = {}
                for result, hits in run(
                    system, origins, queries, keys, sweeps, amount,
                    pointers=pointers, **options,
                ):
                    found = built.get((hits, result.route_hops))
                    if found is None:
                        found = built[hits, result.route_hops] = hits.discoveries(
                            result.route_hops
                        )
                    else:
                        found = list(found)
                    result.discoveries = found
                    results.append(result)
        sp.set(found=sum(r.found for r in results))
    return results
