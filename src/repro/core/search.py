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
  while item bodies stay uniformly spread.  Stage 1 is the read engine
  walking the nodes' pointer rows; stage 2 is the engine's fetch loop.

``find_item`` keeps a loop of its own: it is nearly always answered at
the home, where the engine's walk would first build the frontier
(DESIGN.md, "Read path").  Walk frontiers come from the overlay's
memoised :meth:`~repro.overlay.base.Overlay.walk_order` (epoch-cached
like leaf sets); liveness is filtered at consumption time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional

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
        nodes = system.network._nodes  # noqa: SLF001 - liveness and store peek
        if nodes[home].has_item(item_id):
            sp.set(found=True, closest_hops=route_hops, total_hops=route_hops)
            return FindResult(
                item_id, True, route_hops, route_hops, messages, home,
                degraded=degraded,
            )
        walked = 0
        current = home
        with obs.metrics.timer("kernel.walk"):
            # The frontier is liveness-unfiltered, as in the read
            # engine's walk: dead nodes are skipped here.
            for neighbor in system.overlay.walk_order(home, "both"):
                node = nodes.get(neighbor)
                if node is None or not node.alive:
                    continue
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
                hit = node.has_item(item_id)
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
    start_key: Optional[int] = None,
    direction: Direction = "both",
    **options,
) -> RetrieveResult:
    """§3.5.2: similarity search via directory pointers, the read engine
    on a batch of one.

    Stage 1 routes to the query's *angle* key (``start_key`` overrides
    it) and sweeps the pointer band (pointers of similar items aggregate
    there even though bodies are spread by Eq. 6): the engine's walk
    over the nodes' pointer rows, taking every row that stage 2 could
    return — a positive score of at least ``min_score`` and every
    ``require_all`` keyword.
    Stage 2 fetches bodies: one O(log N) route per distinct body-holding
    node, issued sequentially; each queried node replies with its
    matches (k′ of them), and fetching stops as soon as the running
    total reaches ``amount`` — the (1 + k/c)·O(log N) accounting of
    §3.5.2.

    Per-item discovery hops are charged as stage-1 hops at the pointer
    + the body fetch route, i.e. the sequential path the paper counts.
    ``options`` are ``require_all``, ``min_score``, ``patience`` and
    ``max_walk``.
    """
    ((result, hits),) = _run(
        system, (origin,), (query,), (start_key,), (direction,), amount,
        pointers=True, **options,
    )
    result.discoveries = hits.discoveries(result.route_hops)
    return result


# The read engine builds on this module's types, so it is bound last.
from .search_batch import run as _run  # noqa: E402
