"""Publishing with least-similar displacement — the ``_publish`` /
``_forward`` algorithm of Fig. 2.

A publish routes the item to the home node of its publish key.  If the
home is full, the *least similar* stored item is displaced to the next
closest node in key order, which may displace again, and so on — a
displacement chain bounded by the caller's hop budget.  The policy
guarantees the most similar items stay clustered at and around the home
(§3.3), which is what the retrieve-side neighbor walk exploits.

Two replacement policies are provided:

* ``COSINE`` — the literal Fig. 2 rule: scan the node's stored items
  and displace the one with the lowest cosine similarity to the
  incoming item.  O(stored items) per displacement.
* ``ANGLE`` — the O(log c) proxy this repo uses at corpus scale: the
  victim is whichever of {incoming, stored item with min angle key,
  stored item with max angle key} lies farthest in angle space from the
  incoming key.  Because the absolute angle *is* the similarity scalar
  the whole system clusters by, the farthest-extreme item is the
  least-similar one in the sense that matters for clustering; DESIGN.md
  records this as a measured-equivalent substitution (the ablation
  bench compares both).

Entry points:

* :func:`publish_item` — one item through route + displacement chain
  (the literal Fig. 2 loop).
* :func:`run_displacement_chain` — the chain alone, reused by repair
  and replication placement.
* :func:`batch_publish` — a whole corpus in one key-sorted ring sweep;
  finite-capacity batches run through the cascade engine
  (:mod:`repro.core.cascade`).  Placements and message accounting are
  identical to the sequential loop (``tests/core/test_batch_publish.py``);
  unsupported configurations fall back per item.  The read path has a
  twin of this engine in :mod:`repro.core.search_batch`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..overlay.idspace import KeySpace
from ..overload.admission import BackpressureError
from ..overload.degrade import divert_publish
from ..sim.linkfaults import MessageLossError
from ..sim.node import StoredItem
from ..vsm.sparse import SparseVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = [
    "ReplacementPolicy",
    "PublishResult",
    "publish_item",
    "run_displacement_chain",
    "batch_publish",
    "batch_live_homes",
    "store_runs",
    "SweepPlan",
]


class ReplacementPolicy(enum.Enum):
    COSINE = "cosine"
    ANGLE = "angle"


@dataclass
class PublishResult:
    """Outcome of one publish request.

    ``success`` is False only when the displacement chain exhausted its
    hop budget and an item (``dropped_item_id``) had to be dropped — the
    "inform the application of the failure of publishing" branch.  Note
    the *incoming* item is stored even then; what drops is the chain's
    final displaced victim, exactly as in Fig. 2.
    """

    item_id: int
    home: int
    route_hops: int
    displacement_hops: int = 0
    dropped_item_id: Optional[int] = None
    success: bool = True
    #: node ids touched by the displacement chain, in order (excludes home).
    chain: list[int] = field(default_factory=list)

    @property
    def messages(self) -> int:
        return self.route_hops + self.displacement_hops


def _pick_victim(
    system: "Meteorograph",
    node_id: int,
    incoming: StoredItem,
    policy: ReplacementPolicy,
) -> StoredItem:
    """Choose what a full node displaces to admit ``incoming``.

    May return ``incoming`` itself (under ``ANGLE``, when the incoming
    item is farther from the node's cluster than everything stored —
    storing it just to displace it again would churn two items instead
    of one).
    """
    state = system.state(node_id)
    if policy is ReplacementPolicy.COSINE:
        query = SparseVector(incoming.keyword_ids, incoming.weights, system.dim)
        victim = state.index.least_similar(query)
        assert victim is not None, "full node with empty index"
        return victim
    lo = state.min_angle_item()
    hi = state.max_angle_item()
    assert lo is not None and hi is not None, "full node with empty ladder"
    candidates = [lo, hi, incoming]
    return max(
        candidates,
        key=lambda it: (abs(it.angle_key - incoming.angle_key), it.item_id),
    )


def run_displacement_chain(
    system: "Meteorograph",
    home_id: int,
    item: StoredItem,
    *,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
) -> PublishResult:
    """Place ``item`` at ``home_id``, displacing as needed (Fig. 2 loop).

    The chain visits nodes in increasing linear key distance from the
    home ("closest neighbor" frontier); each full node swaps the
    incoming item for its least-similar one and pushes the victim on.
    Charges one ``displace`` message per chain hop.
    """
    result = PublishResult(item_id=item.item_id, home=home_id, route_hops=0)
    current = home_id
    incoming = item
    budget = hop_budget
    # Built on first demand: the overwhelmingly common publish lands on
    # a non-full home and must do zero neighbor-ordering work.
    frontier = None
    tracer = system.network.obs.tracer
    while True:
        node = system.network.node(current)
        if not node.is_full:
            system.store_at(current, incoming)
            return result
        victim = _pick_victim(system, current, incoming, policy)
        if victim.item_id != incoming.item_id:
            system.evict_from(current, victim.item_id)
            system.store_at(current, incoming)
        # else: incoming itself continues down the chain unstored.
        if budget is not None and budget <= 0:
            # Fig. 2: "if (c = 0) reply a publishing failure" — but the
            # swap above has already happened at this terminal node, so
            # what drops is the chain's final displaced *victim*, never
            # the in-flight incoming item (unless the policy picked the
            # incoming itself as least similar).
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        if frontier is None:
            frontier = system.overlay.closest_neighbors(home_id, alive_only=True)
        next_id = next(frontier, None)
        if next_id is None:
            # No node left in the overlay can take the victim.
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        try:
            system.network.send(current, next_id, kind="displace")
        except MessageLossError:
            # The displacement push was charged but lost in flight: the
            # victim drops here, exactly the budget-exhaustion outcome —
            # the in-flight incoming item was already swapped in above.
            result.success = False
            result.dropped_item_id = victim.item_id
            return result
        if tracer.enabled:
            tracer.event("displace", src=current, dst=next_id, item=victim.item_id)
        result.displacement_hops += 1
        result.chain.append(next_id)
        if budget is not None:
            budget -= 1
        current = next_id
        incoming = victim


def publish_item(
    system: "Meteorograph",
    origin: int,
    item_id: int,
    keyword_ids: np.ndarray,
    weights: np.ndarray,
    *,
    payload: object = None,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
    precomputed_keys: Optional[tuple[int, int]] = None,
) -> PublishResult:
    """Full publish: resolve keys (Eq. 5 / Eq. 6), route, place, replicate.

    ``precomputed_keys`` is the (angle_key, publish_key) pair when the
    caller batch-computed keys for a whole corpus (the vectorised path);
    otherwise they are derived here.
    """
    if precomputed_keys is None:
        angle_key, publish_key = system.item_keys(keyword_ids, weights)
    else:
        angle_key, publish_key = precomputed_keys
    item = StoredItem(
        item_id=item_id,
        publish_key=publish_key,
        angle_key=angle_key,
        keyword_ids=np.asarray(keyword_ids, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        payload=payload,
    )
    obs = system.network.obs
    with obs.tracer.span("publish", item=item_id, key=publish_key) as sp:
        level = 0
        try:
            route = system.deliver_home(origin, publish_key, kind="publish")
            assert route.home is not None
            home, route_hops = route.home, route.hops
        except BackpressureError:
            # The home shed the publish: back off through the retry
            # discipline, then place on the nearest admitting
            # key-neighbor; only a fully-shed publish is reported as a
            # failure (the "inform the application" branch of Fig. 2).
            home, route_hops, level = divert_publish(system, origin, publish_key)
            if home is None:
                sp.set(ok=False, shed=True)
                return PublishResult(
                    item_id=item_id,
                    home=system.overlay.home(publish_key),
                    route_hops=route_hops,
                    dropped_item_id=item_id,
                    success=False,
                )
        with obs.metrics.timer("publish.displace_chain"):
            result = run_displacement_chain(
                system,
                home,
                item,
                hop_budget=hop_budget,
                policy=policy,
            )
        result.route_hops = route_hops
        if system.config.directory_pointers:
            system.publish_pointer(home, item)
        if system.replication is not None and result.success:
            system.replication.replicate(home, item)
        sp.set(
            home=result.home,
            route_hops=route_hops,
            displacement_hops=result.displacement_hops,
            ok=result.success,
        )
        if level:
            sp.set(degraded=level)
    return result


def batch_live_homes(
    space: KeySpace, live_sorted: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Vectorised ``SortedKeyRing.closest`` over a sorted live-node array.

    Mirrors the scalar tie-break exactly (equidistant → smaller id), so
    batch and per-item publishes agree on every home.
    """
    if live_sorted.size == 0:
        raise ValueError("no live nodes")
    n = live_sorted.size
    keys = np.asarray(keys, dtype=np.int64)
    i = np.searchsorted(live_sorted, keys)
    succ = live_sorted[i % n]
    pred = live_sorted[(i - 1) % n]
    m = space.modulus
    ds = np.abs(succ - keys) % m
    ds = np.minimum(ds, m - ds)
    dp = np.abs(pred - keys) % m
    dp = np.minimum(dp, m - dp)
    return np.where(ds < dp, succ, np.where(dp < ds, pred, np.minimum(succ, pred)))


def store_runs(
    system: "Meteorograph",
    items: Sequence[StoredItem],
    homes: np.ndarray,
    order: np.ndarray,
    norms: Optional[np.ndarray] = None,
) -> None:
    """Store a displacement-free batch: one bulk store per home run.

    ``order`` is the stable argsort of the batch's publish keys, so key
    order == sweep order and each maximal stretch of equal ``homes``
    along it is the run the sweep drops off as it passes that node.
    ``norms`` optionally parallels ``items`` (``Corpus.norms``).
    """
    if order.size == 0:
        return
    order_l = order.tolist()
    run_homes = homes[order]
    norms_l = np.asarray(norms)[order].tolist() if norms is not None else None
    cuts = (np.flatnonzero(run_homes[1:] != run_homes[:-1]) + 1).tolist()
    store_run = system.store_run
    for a, b in zip([0, *cuts], [*cuts, len(order_l)]):
        store_run(
            int(run_homes[a]),
            [items[k] for k in order_l[a:b]],
            norms_l[a:b] if norms_l is not None else None,
        )


class SweepPlan:
    """The global planning state of one key-sorted ring sweep.

    :func:`batch_publish`'s vectorised part: every item's live home, the
    key-sorted sweep order, each item's marginal ``route_hops`` and the
    total sweep message count.

    Two-step protocol: construct with the batch's publish keys, route to
    :attr:`first_key`'s home however the caller likes, then
    :meth:`finalize` with the landing home to fix the sweep geometry.
    """

    __slots__ = (
        "keys",
        "live",
        "live_sorted",
        "homes",
        "order",
        "m",
        "start_pos",
        "sweep",
        "route_hops",
    )

    def __init__(self, system: "Meteorograph", keys: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        network = system.network
        live = [nid for nid in system.overlay.ring if network.is_alive(nid)]
        if not live:
            raise RuntimeError("no live nodes to publish to")
        self.live = live
        self.live_sorted = np.asarray(live, dtype=np.int64)  # ring iterates in key order
        self.m = len(live)
        self.homes = batch_live_homes(system.space, self.live_sorted, self.keys)
        self.order = np.argsort(self.keys, kind="stable")

    @property
    def first_key(self) -> int:
        """The smallest publish key — the sweep's single routed target."""
        return int(self.keys[self.order[0]])

    def finalize(self, start_home: int) -> "SweepPlan":
        """Fix the sweep geometry from the routed landing home.

        Because items are visited in key order the per-item step counts
        are just modular position differences along the live ring —
        computed vectorised.  Sets :attr:`start_pos` (ring position of
        the landing home), :attr:`sweep` (total clockwise steps, i.e.
        ``publish`` messages) and :attr:`route_hops` (each item's
        marginal step count, in item order).
        """
        pos_sorted = np.searchsorted(self.live_sorted, self.homes[self.order])
        cur = int(np.searchsorted(self.live_sorted, start_home))
        prev = np.empty_like(pos_sorted)
        prev[0] = cur
        prev[1:] = pos_sorted[:-1]
        steps_sorted = (pos_sorted - prev) % self.m
        self.start_pos = cur
        self.sweep = int(steps_sorted.sum())
        route_hops_arr = np.zeros(self.keys.size, dtype=np.int64)
        route_hops_arr[self.order] = steps_sorted
        self.route_hops = route_hops_arr
        return self


def batch_publish(
    system: "Meteorograph",
    items: Sequence[StoredItem],
    *,
    origin: int,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
    keys: Optional[np.ndarray] = None,
    norms: Optional[np.ndarray] = None,
    cascade: Optional[bool] = None,
) -> list[PublishResult]:
    """Single-sweep batch placement (Mercury-style locality batching).

    Instead of one O(log N) route per item, the batch computes every
    item's live home vectorised, routes **once** to the home of the
    smallest publish key, then walks the ring in key order delivering
    each node's run of items — N routes collapse to 1 route plus a ring
    sweep of at most ~N_nodes ``publish`` messages.

    Placement semantics are identical to publishing the items one at a
    time in list order:

    * infinite capacity — items simply store at their homes (placement
      is order-free); this branch runs no displacement machinery at all;
    * finite capacity — each item runs the standard Fig. 2 displacement
      chain at its home, in list order, so placements, ``success``,
      ``dropped_item_id`` and ``displacement_hops`` match the
      sequential loop exactly (the equivalence property test in
      ``tests/core/test_batch_publish.py`` pins this).

    Only *route* accounting differs, by design: each item's
    ``route_hops`` is the marginal number of sweep messages spent to
    first reach its home (the first item also carries the real route's
    hops), so ``sum(r.route_hops)`` equals the messages actually
    charged on the network.

    ``keys`` optionally supplies the items' publish keys as an int64
    array and ``norms`` their Euclidean norms (``Corpus.norms``) —
    callers that batch-computed either for the whole corpus skip the
    per-item recomputation here.

    ``cascade`` selects the finite-capacity engine: ``None`` (auto, the
    default) runs the :mod:`repro.core.cascade` shadow-state engine
    whenever it is exact for the configuration (``ANGLE`` policy, no
    notification/admission hooks) and falls back to the per-item chain
    loop otherwise; ``False`` forces the sequential loop (the reference
    semantics the equivalence tests compare against); ``True`` asserts
    the engine and raises if the configuration cannot take it.
    """
    n = len(items)
    if n == 0:
        return []
    if keys is None:
        keys = np.fromiter((it.publish_key for it in items), dtype=np.int64, count=n)
    elif len(keys) != n:
        raise ValueError("keys must parallel items")
    network = system.network
    plan = SweepPlan(system, keys)
    live = plan.live
    live_sorted = plan.live_sorted
    homes = plan.homes
    order = plan.order
    obs = network.obs
    tracer = obs.tracer
    results: list[Optional[PublishResult]] = [None] * n
    with tracer.span("publish_batch", items=n) as sp:
        first_key = plan.first_key
        try:
            route = system.deliver_home(origin, first_key, kind="publish")
            assert route.home is not None
            start_home, start_hops = route.home, route.hops
        except BackpressureError:
            # The sweep's entry home shed the route.  The sweep itself
            # delivers node-locally, so just start it at the live home
            # directly (the route messages already spent are billed).
            start_home = system.overlay.live_home(first_key)
            start_hops = 0
            if start_home is None:
                raise RuntimeError("no live nodes to publish to") from None
        # Ring sweep: advance clockwise over live nodes, charging one
        # publish message per step; record each item's marginal cost.
        # The sweep geometry (step counts, total sweep length) comes
        # from the SweepPlan, leaving one short loop (~N_nodes
        # iterations, not ~N_items) to charge the per-step messages.
        homes_l = homes.tolist()
        order_l = order.tolist()
        send = network.send
        m = plan.m
        plan.finalize(start_home)
        cur = plan.start_pos
        sweep = plan.sweep
        route_hops = plan.route_hops.tolist()
        for _ in range(sweep):
            nxt = (cur + 1) % m
            try:
                send(live[cur], live[nxt], kind="publish")
            except (BackpressureError, MessageLossError):
                # A saturated node shed the step message, or the link
                # dropped it; the sweep continues past it (placement is
                # node-local, the per-step message was already billed).
                pass
            cur = nxt
        route_hops[order_l[0]] += start_hops
        # No-overflow prepass: a node can only start a displacement chain
        # if its run of arrivals pushes it past capacity, so when every
        # receiving node can absorb its whole run the batch is
        # displacement-free even under finite capacity and the bulk-store
        # branch is exact.  (Re-published ids overcount arrivals, which
        # only errs toward the general branch.)
        caps = np.fromiter(
            (
                -1 if (c := network.node(nid).capacity) is None else c
                for nid in live
            ),
            dtype=np.int64,
            count=m,
        )
        displacement_free = bool(np.all(caps < 0))
        if not displacement_free:
            loads = np.fromiter(
                (len(network.node(nid)) for nid in live), dtype=np.int64, count=m
            )
            arrivals = np.bincount(
                np.searchsorted(live_sorted, homes), minlength=m
            )
            displacement_free = bool(
                np.all((caps < 0) | (loads + arrivals <= caps))
            )
        if displacement_free:
            store_runs(system, items, homes, order, norms)
            results = [
                PublishResult(item_id=it.item_id, home=h, route_hops=hops)
                for it, h, hops in zip(items, homes_l, route_hops)
            ]
        else:
            from .cascade import cascade_placement, cascade_supported

            engine = cascade if cascade is not None else cascade_supported(
                system, policy
            )
            if cascade is True and not cascade_supported(system, policy):
                raise ValueError(
                    "cascade placement requires the ANGLE policy and no "
                    "notification/admission hooks"
                )
            placed = False
            if engine:
                with obs.metrics.timer("publish.cascade"):
                    placed = cascade_placement(
                        system,
                        items,
                        homes_l,
                        route_hops,
                        results,
                        hop_budget=hop_budget,
                        norms=norms,
                    )
            if not placed:
                if engine:
                    obs.metrics.counter("publish.cascade_fallback")
                timer = obs.metrics.timer
                for k in range(n):  # original publish order: chain outcomes match the loop
                    with timer("publish.displace_chain"):
                        res = run_displacement_chain(
                            system,
                            homes_l[k],
                            items[k],
                            hop_budget=hop_budget,
                            policy=policy,
                        )
                    res.route_hops = route_hops[k]
                    results[k] = res
        sp.set(
            route_hops=start_hops,
            sweep_hops=sweep,
            failed=sum(1 for r in results if r is not None and not r.success),
        )
    return results  # type: ignore[return-value]
