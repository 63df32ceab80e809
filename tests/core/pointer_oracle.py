"""The §3.5.2 pointer protocol as a hand-written loop, kept as the oracle.

:func:`oracle_retrieve_with_pointers` is the two-stage search as it ran
before the read engine walked pointer rows: its own stage-1 sweep, in
which every visit scans every pointer on the node in Python, then the
sequential body fetches.  ``retrieve`` and ``retrieve_many`` under
directory pointers must equal it on every result field and on the
message bill wherever its scan and the engine's row predicate agree.
They differ where the scan promised pointers no fetch could return — a
``require_all`` that shares no keyword with the query (or is empty), a
``min_score`` above 0 — and where one id has pointers on two nodes; the
engine's rules are pinned in ``test_pointer_engine.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.search import Discovery, Harvest, RetrieveResult
from repro.overload.admission import BackpressureError
from repro.overload.degrade import divert_home
from repro.sim.linkfaults import MessageLossError

__all__ = ["oracle_retrieve_with_pointers"]


def _live_frontier(system, node_id: int, direction: str):
    is_alive = system.network.is_alive
    return (n for n in system.overlay.walk_order(node_id, direction) if is_alive(n))


def _pointer_rows(node):
    """The node's pointers (each an item's ``StoredItem``, whose
    ``publish_key`` is the body key), in arrival order."""
    return [] if node.pointers is None else list(node.pointers.items_by_id().values())


def oracle_retrieve_with_pointers(
    system,
    origin: int,
    query,
    amount: Optional[int],
    *,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    patience: int = 8,
    max_walk: Optional[int] = None,
    start_key: Optional[int] = None,
    direction: str = "both",
) -> RetrieveResult:
    if not system.config.directory_pointers:
        raise RuntimeError("directory pointers are disabled in this configuration")
    if amount is not None and amount < 1:
        raise ValueError(f"amount must be >= 1 or None, got {amount}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    key = start_key if start_key is not None else system.query_angle_key(query)
    try:
        route = system.deliver_home(origin, key, kind="retrieve")
        home, route_hops = route.home, route.hops
        degradation = 0
    except BackpressureError as exc:
        home, route_hops, degradation = divert_home(
            system, key, kind="retrieve", origin=origin, exclude=(exc.node_id,)
        )
        if home is None:
            return RetrieveResult(
                route_hops=route_hops, complete=False, degradation_level=degradation
            )
    result = RetrieveResult(route_hops=route_hops, degradation_level=degradation)
    result.visited.append(home)

    require = None if require_all is None else [int(k) for k in require_all]
    qset = query.keyword_set()

    def matching_pointers(node_id: int) -> list:
        out = []
        for p in _pointer_rows(system.network.node(node_id)):
            if require is not None:
                have = set(int(k) for k in p.keyword_ids)
                if not all(k in have for k in require):
                    continue
            elif qset.isdisjoint(p.keyword_ids.tolist()):
                continue
            out.append(p)
        return out

    # Stage 1: sweep the pointer band.
    pointers = []
    pointer_hop: dict[int, int] = {}
    hits = matching_pointers(home)
    for p in hits:
        pointer_hop[p.item_id] = route_hops
    pointers.extend(hits)
    dry = 0
    walked = 0
    current = home
    for neighbor in _live_frontier(system, home, direction):
        if dry >= patience:
            break
        if max_walk is not None and walked >= max_walk:
            break
        if amount is not None and len(pointers) >= amount:
            break
        try:
            system.network.send(current, neighbor, kind="retrieve")
        except (BackpressureError, MessageLossError):
            walked += 1
            result.walk_hops += 1
            dry += 1
            continue
        current = neighbor
        walked += 1
        result.walk_hops += 1
        result.visited.append(neighbor)
        hits = matching_pointers(neighbor)
        for p in hits:
            pointer_hop.setdefault(p.item_id, route_hops + walked)
        pointers.extend(hits)
        dry = 0 if hits else dry + 1

    # Stage 2: sequential body fetches, one route per distinct body home.
    by_home: dict[int, list] = {}
    for p in pointers:
        by_home.setdefault(system.overlay.home(p.publish_key), []).append(p)
    fetched = Harvest()
    fetch_walk_limit = max_walk if max_walk is not None else max(patience, 4)

    def harvest_at(node_id: int, fetch_hops_here: int) -> int:
        index = system.network.node(node_id).index
        if index is None:
            return 0
        remaining = None if amount is None else amount - fetched.found
        ranking = index.query(
            query, limit=remaining, require_all=require, min_score=min_score
        )
        return fetched.fold(ranking, node_id, fetch_hops_here, amount)

    for body_home in sorted(by_home, key=lambda h: min(p.item_id for p in by_home[h])):
        if amount is not None and fetched.found >= amount:
            break
        wanted = {p.item_id for p in by_home[body_home]}
        try:
            fetch = system.deliver_home(home, body_home, kind="retrieve")
        except BackpressureError:
            result.degradation_level = max(result.degradation_level, 1)
            result.complete = False
            continue
        result.fetch_hops += fetch.hops
        result.reply_messages += 1
        terminal = fetch.home
        harvest_at(terminal, fetch.hops)
        missing = wanted - fetched.seen
        if missing:
            walked = 0
            current = terminal
            for neighbor in _live_frontier(system, terminal, "both"):
                if not missing or walked >= fetch_walk_limit:
                    break
                if amount is not None and fetched.found >= amount:
                    break
                try:
                    system.network.send(current, neighbor, kind="retrieve")
                except (BackpressureError, MessageLossError):
                    walked += 1
                    result.fetch_hops += 1
                    continue
                current = neighbor
                walked += 1
                result.fetch_hops += 1
                if harvest_at(neighbor, fetch.hops + walked):
                    result.reply_messages += 1
                missing -= fetched.seen
    result.discoveries = [
        Discovery(iid, nid, score, pointer_hop.get(iid, route_hops) + at)
        for iid, nid, score, at in zip(*fetched.columns)
    ]
    if amount is not None and fetched.found < amount:
        result.complete = False
    return result
