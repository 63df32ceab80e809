"""Retrieval: ranked search, neighbor walks, exact-item lookup (Fig. 2).

The retrieve algorithm mirrors publish: resolve the query's key, route
to its home, harvest the local index, and — when the home cannot fill
the requested ``amount`` — consult closest neighbors in key order.
Because publish clusters similar items at and around the home, the walk
terminates after ~k/c nodes for a k-item request.

Entry points:

* :func:`retrieve` — the plain Fig. 2 ``_retrieve`` (+ neighbor walk),
  under every configuration.  It is the read engine of
  :mod:`repro.core.search_batch` on a batch of one, the engine
  :func:`~repro.core.search_batch.retrieve_many` runs on a storm (see
  DESIGN.md, "Read path").  Under back-pressure the home may shed the
  query; the result is then harvested from the nearest admitting
  key-neighbor and tagged with a ``degradation_level`` (the
  overload-protection contract).
* :func:`find_item` — exact-item lookup used by the Fig. 9 experiment,
  reporting both the "Closest" hop count (route) and the "Neighbors"
  hop count (walk to wherever displacement actually left the item).
* :func:`retrieve_with_pointers` — the §3.5.2 two-stage protocol over
  directory pointers (pointer home first, then sequential body
  fetches), giving the paper's ``(1 + k/c)·O(log N)`` message bound
  while item bodies stay uniformly spread.

Walk frontiers come from the overlay's memoised
:meth:`~repro.overlay.base.Overlay.walk_order` (epoch-cached like leaf
sets); liveness is filtered at consumption time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional, Sequence

from ..overload.admission import BackpressureError
from ..overload.degrade import divert_home
from ..sim.linkfaults import MessageLossError
from ..vsm.sparse import SparseVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..vsm.index import Ranking
    from .meteorograph import Meteorograph

__all__ = [
    "Discovery", "RetrieveResult", "FindResult", "Harvest", "retrieve",
    "find_item", "retrieve_with_pointers",
]

Direction = Literal["both", "up", "down"]


@dataclass(frozen=True)
class Discovery:
    """One matching item, with the sequential hop count at which the
    query first reached it (the Fig. 10(a) per-item metric)."""

    item_id: int
    node_id: int
    score: float
    hops: int


@dataclass
class RetrieveResult:
    discoveries: list[Discovery] = field(default_factory=list)
    route_hops: int = 0
    walk_hops: int = 0
    fetch_hops: int = 0
    reply_messages: int = 0
    visited: list[int] = field(default_factory=list)
    #: True when the request was fully satisfied (amount reached, or the
    #: walk ended by patience/exhaustion for unbounded requests).
    complete: bool = True
    #: 0 = served from the nominal home.  k > 0 = the home shed the
    #: query under back-pressure and the result was harvested from the
    #: k-th home-preference neighbor instead — a *partial ranked* result
    #: over the next-most-similar band (DESIGN.md, "Overload
    #: protection": the degradation contract).
    degradation_level: int = 0

    @property
    def degraded(self) -> bool:
        return self.degradation_level > 0

    @property
    def messages(self) -> int:
        return self.route_hops + self.walk_hops + self.fetch_hops + self.reply_messages

    @property
    def found(self) -> int:
        return len(self.discoveries)

    def item_ids(self) -> list[int]:
        return [d.item_id for d in self.discoveries]


@dataclass(frozen=True)
class FindResult:
    """Fig. 9's two curves for one exact-item query."""

    item_id: int
    found: bool
    closest_hops: int  # route to the key's home ("Closest")
    total_hops: int  # route + neighbor walk to the item ("Neighbors")
    messages: int
    node_id: Optional[int] = None
    #: True when the lookup was served through back-pressure diversion
    #: (or fully shed, in which case ``found`` is False too).
    degraded: bool = False


class Harvest:
    """One walk's fresh hits as parallel ``(item_ids, node_ids, scores,
    hops)`` columns, in discovery order, ``hops`` relative to a base the
    caller adds (the read engine's walk depth, the pointer fetch's
    route).  Every read path folds node rankings in here and builds
    :class:`Discovery` objects once, for what it returns."""

    __slots__ = ("columns", "seen")

    def __init__(self) -> None:
        self.columns: tuple[list, list, list, list] = ([], [], [], [])
        self.seen: set[int] = set()

    @property
    def found(self) -> int:
        return len(self.seen)

    def fold(
        self, ranking: "Ranking", node_id: int, hops: int, amount: Optional[int]
    ) -> int:
        """Fold one node's ranking in; returns how many items were fresh
        (the node replies iff that is non-zero).  The ``amount`` budget
        is a prefix of the ranking taken *before* deduplication, so
        already-seen items consume budget (Fig. 2)."""
        ids, scores = ranking.ids, ranking.scores
        if not ids.size:  # a dry visit, the common case
            return 0
        seen = self.seen
        if amount is not None:
            budget = amount - len(seen)
            ids, scores = ids[:budget], scores[:budget]
        ids, scores = ids.tolist(), scores.tolist()
        if not seen.isdisjoint(ids):
            fresh = [(i, s) for i, s in zip(ids, scores) if i not in seen]
            ids, scores = [i for i, _ in fresh], [s for _, s in fresh]
        seen.update(ids)
        n = len(ids)
        for column, new in zip(self.columns, (ids, [node_id] * n, scores, [hops] * n)):
            column += new
        return n

    def discoveries(self, base: int = 0) -> list[Discovery]:
        """The hits as objects, ``hops`` offset by ``base``."""
        return [Discovery(i, n, s, base + h) for i, n, s, h in zip(*self.columns)]


def _walk_order(
    system: "Meteorograph", home: int, direction: Direction
):
    """Frontier of nodes to consult after the home, per walk direction.

    The order itself comes from the overlay's epoch-memoised
    ``walk_order`` (the per-query recomputation used to dominate
    hot-home walk cost); liveness is filtered here, at consumption,
    because ``fail()`` does not invalidate membership caches.
    """
    is_alive = system.network.is_alive
    for nid in system.overlay.walk_order(home, direction):
        if is_alive(nid):
            yield nid


def retrieve(
    system: "Meteorograph",
    origin: int,
    query: SparseVector,
    amount: Optional[int],
    *,
    start_key: Optional[int] = None,
    direction: Direction = "both",
    **options,
) -> RetrieveResult:
    """Fig. 2 ``_retrieve`` with the closest-neighbor walk: the read
    engine (:func:`repro.core.search_batch.run`) on a batch of one.

    ``start_key`` overrides the query's own key — this is how the
    §3.5.1 first-hop optimization plugs in (see
    :mod:`repro.core.firsthop`), and ``direction="up"`` starts the walk
    at the low end of a keyword band and sweeps through it.  ``options``
    are the walk's ``require_all``, ``min_score``, ``patience`` and
    ``max_walk``.
    """
    ((result, hits),) = _run(
        system, (origin,), (query,), (start_key,), (direction,), amount, **options
    )
    result.discoveries = hits.discoveries(result.route_hops)
    return result


def find_item(
    system: "Meteorograph",
    origin: int,
    item_id: int,
    *,
    max_walk: Optional[int] = None,
) -> FindResult:
    """Locate one specific published item (the Fig. 9 experiment).

    Routes to the home of the item's publish key ("Closest"), then
    walks closest neighbors until some node — or a live replica holder —
    has the item ("Neighbors").  With displacement active the item may
    sit several neighbors away from its nominal home; with failures the
    walk lands on replicas.
    """
    publish_key = system.published_key_of(item_id)
    obs = system.network.obs
    tracer = obs.tracer
    with tracer.span("find", item=item_id, key=publish_key, origin=origin) as sp:
        degraded = False
        try:
            route = system.deliver_home(origin, publish_key, kind="retrieve")
            assert route.home is not None
            home, route_hops = route.home, route.hops
        except BackpressureError as exc:
            degraded = True
            home, route_hops, _ = divert_home(
                system, publish_key, kind="retrieve", origin=origin,
                exclude=(exc.node_id,),
            )
            if home is None:
                sp.set(found=False, shed=True)
                return FindResult(
                    item_id, False, route_hops, route_hops, route_hops,
                    None, degraded=True,
                )
        messages = route_hops

        def holds(node_id: int) -> bool:
            return system.network.node(node_id).has_item(item_id)

        if holds(home):
            sp.set(found=True, closest_hops=route_hops, total_hops=route_hops)
            return FindResult(
                item_id, True, route_hops, route_hops, messages, home,
                degraded=degraded,
            )
        walked = 0
        current = home
        with obs.metrics.timer("kernel.walk"):
            for neighbor in _walk_order(system, home, "both"):
                if max_walk is not None and walked >= max_walk:
                    break
                try:
                    system.network.send(current, neighbor, kind="retrieve")
                except (BackpressureError, MessageLossError):
                    # Saturated neighbor or lost consult; skip it.
                    walked += 1
                    messages += 1
                    continue
                current = neighbor
                walked += 1
                messages += 1
                hit = holds(neighbor)
                if tracer.enabled:
                    tracer.event("walk", node=neighbor, hit=hit)
                if hit:
                    sp.set(
                        found=True,
                        closest_hops=route_hops,
                        total_hops=route_hops + walked,
                    )
                    return FindResult(
                        item_id,
                        True,
                        route_hops,
                        route_hops + walked,
                        messages,
                        neighbor,
                        degraded=degraded,
                    )
        sp.set(found=False, closest_hops=route_hops, total_hops=route_hops + walked)
        return FindResult(
            item_id, False, route_hops, route_hops + walked, messages, None,
            degraded=degraded,
        )


def retrieve_with_pointers(
    system: "Meteorograph",
    origin: int,
    query: SparseVector,
    amount: Optional[int],
    *,
    require_all: Optional[Sequence[int]] = None,
    min_score: float = 0.0,
    patience: int = 8,
    max_walk: Optional[int] = None,
    start_key: Optional[int] = None,
    direction: Direction = "both",
) -> RetrieveResult:
    """§3.5.2: similarity search via directory pointers.

    Stage 1 routes to the query's *angle* key and sweeps the pointer
    band (pointers of similar items aggregate there even though bodies
    are spread by Eq. 6).  Stage 2 fetches bodies: one O(log N) route
    per distinct body-holding node, issued sequentially; each queried
    node replies with its matches (k′ of them), and fetching stops as
    soon as the running total reaches ``amount`` — the (1 + k/c)·O(log N)
    accounting of §3.5.2.

    Per-item discovery hops are charged as stage-1 hops at the pointer
    + the body fetch route, i.e. the sequential path the paper counts.
    """
    if not system.config.directory_pointers:
        raise RuntimeError("directory pointers are disabled in this configuration")
    if amount is not None and amount < 1:
        raise ValueError(f"amount must be >= 1 or None, got {amount}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    key = start_key if start_key is not None else system.query_angle_key(query)
    obs = system.network.obs
    tracer = obs.tracer
    # Context-managed span, like ``retrieve``: an exception mid-protocol
    # must not leak an unfinished span into the trace tree.
    with tracer.span(
        "retrieve", key=key, origin=origin, amount=amount, mode="pointers"
    ) as sp:
        degradation = 0
        try:
            route = system.deliver_home(origin, key, kind="retrieve")
            assert route.home is not None
            home, route_hops = route.home, route.hops
        except BackpressureError as exc:
            # The pointer home shed the query: sweep the band from the
            # nearest admitting neighbor instead (pointers of similar
            # items aggregate across the whole band, so a shifted sweep
            # start degrades coverage, not correctness).
            home, route_hops, degradation = divert_home(
                system, key, kind="retrieve", origin=origin, exclude=(exc.node_id,)
            )
            if home is None:
                sp.set(found=0, shed=True)
                return RetrieveResult(
                    route_hops=route_hops,
                    complete=False,
                    degradation_level=degradation,
                )
        result = RetrieveResult(route_hops=route_hops, degradation_level=degradation)
        result.visited.append(home)

        require = None if require_all is None else [int(k) for k in require_all]
        qset = query.keyword_set()

        def matching_pointers(node_id: int) -> list:
            node = system.network.node(node_id)
            out = []
            for p in node.pointers():
                if require is not None:
                    have = set(int(k) for k in p.keyword_ids)
                    if not all(k in have for k in require):
                        continue
                # Without an exact filter, a pointer is a candidate when
                # it shares at least one query keyword.
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
        for neighbor in _walk_order(system, home, direction):
            if dry >= patience:
                break
            if max_walk is not None and walked >= max_walk:
                break
            if amount is not None and len(pointers) >= amount:
                break
            try:
                system.network.send(current, neighbor, kind="retrieve")
            except (BackpressureError, MessageLossError):
                # Saturated or unreachable pointer holder: its band
                # segment is skipped.
                walked += 1
                result.walk_hops += 1
                dry += 1
                continue
            current = neighbor
            walked += 1
            result.walk_hops += 1
            result.visited.append(neighbor)
            hits = matching_pointers(neighbor)
            if tracer.enabled:
                tracer.event("walk", node=neighbor, fresh=len(hits))
            for p in hits:
                pointer_hop.setdefault(p.item_id, route_hops + walked)
            pointers.extend(hits)
            dry = 0 if hits else dry + 1

        # Stage 2: sequential body fetches, one route per distinct body home.
        by_home: dict[int, list] = {}
        for p in pointers:
            body_home = system.overlay.home(p.body_key)
            by_home.setdefault(body_home, []).append(p)
        fetch_origin = home
        # Hits carry the fetch-relative hop count; the stage-1 hops at
        # which each item's pointer was met are added at materialisation.
        hits = Harvest()
        # The displacement walk around a body home honors the caller's
        # ``max_walk`` exactly like the stage-1 sweep and ``retrieve``;
        # the old fixed max(patience, 4) cap is only the fallback.
        fetch_walk_limit = max_walk if max_walk is not None else max(patience, 4)

        def harvest_at(node_id: int, fetch_hops_here: int) -> int:
            index = system.network.node(node_id).index
            if index is None:
                return 0
            remaining = None if amount is None else amount - hits.found
            ranking = index.query(
                query, limit=remaining, require_all=require, min_score=min_score
            )
            return hits.fold(ranking, node_id, fetch_hops_here, amount)

        for body_home in sorted(by_home, key=lambda h: min(p.item_id for p in by_home[h])):
            if amount is not None and hits.found >= amount:
                break
            wanted = {p.item_id for p in by_home[body_home]}
            if tracer.enabled:
                tracer.event("fetch", body_home=body_home, promised=len(wanted))
            try:
                fetch = system.deliver_home(fetch_origin, body_home, kind="retrieve")
            except BackpressureError:
                # The body holder shed the fetch: its promised items are
                # forfeited this query — a partial result, tagged.
                result.degradation_level = max(result.degradation_level, 1)
                result.complete = False
                continue
            result.fetch_hops += fetch.hops
            result.reply_messages += 1  # the k′-items reply to the pointer home
            terminal = fetch.home
            assert terminal is not None
            harvest_at(terminal, fetch.hops)
            # Displacement (Fig. 2) may have pushed pointer-promised bodies
            # onto the home's neighbors; extend the fetch with the standard
            # closest-neighbor walk until every promised item is accounted
            # for (bounded by patience, like the stage-1 sweep).
            missing = wanted - hits.seen
            if missing:
                walked = 0
                current = terminal
                for neighbor in _walk_order(system, terminal, "both"):
                    if not missing or walked >= fetch_walk_limit:
                        break
                    if amount is not None and hits.found >= amount:
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
                        # A neighbor that contributes items sends a reply,
                        # exactly as ``retrieve`` counts its walk replies —
                        # §3.5.2 message totals are comparable across modes.
                        result.reply_messages += 1
                    missing -= hits.seen
        result.discoveries = [
            Discovery(iid, nid, score, pointer_hop.get(iid, route_hops) + at)
            for iid, nid, score, at in zip(*hits.columns)
        ]
        if amount is not None and hits.found < amount:
            result.complete = False
        sp.set(
            home=home,
            route_hops=route_hops,
            walk_hops=result.walk_hops,
            fetch_hops=result.fetch_hops,
            found=result.found,
            complete=result.complete,
        )
        if result.degradation_level:
            sp.set(degraded=result.degradation_level)
    return result


# The read engine builds on this module's types, so it is bound last.
from .search_batch import run as _run  # noqa: E402
