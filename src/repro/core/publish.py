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

One driver, :func:`run`, is the only route into placement:
``Meteorograph.publish`` is a batch of one row and
``Meteorograph.publish_corpus`` a batch of many.  It shares work at two
levels, each refused by one function returning the first matching
reason (the write twin of :mod:`repro.core.search_batch`):

* route sharing (:func:`batch_publish`: one route to the smallest key's
  home, then one ring sweep dropping each node's run off) is refused
  under directory pointers or replication, which need the per-item
  protocol, and for a republish, which withdraws row by row —
  :func:`publish_row` then runs each row unshared;
* displacement sharing (the :mod:`repro.core.cascade` engine) is
  refused under the ``COSINE`` policy, a notification service,
  admission control or a link-fault plane, which observe each
  displacement as it happens — :func:`run_displacement_chain` then
  runs each item's chain in list order.

A refusal counts under ``publish.batch.fallback.<reason>`` or
``publish.cascade.fallback.<reason>``.  On a ring whose routes reach
the live homes, placements, per-item results (``route_hops`` aside)
and the ``displace`` bill equal the unshared loop's, which
``tests/core/publish_oracle.py`` keeps as ``oracle_publish``;
``tests/core/test_batch_publish.py`` pins the equivalence and its
boundary (see :func:`batch_publish`).
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
from ..vsm.index import RowBlock, StoredItem
from ..vsm.sparse import SparseVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..vsm.index import LocalVsmIndex
    from .meteorograph import Meteorograph

__all__ = [
    "ReplacementPolicy",
    "PublishResult",
    "run",
    "publish_item",
    "publish_pointer",
    "publish_row",
    "run_displacement_chain",
    "batch_publish",
    "batch_live_homes",
    "store_runs",
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
    index: "LocalVsmIndex",
    incoming: StoredItem,
    policy: ReplacementPolicy,
) -> int:
    """The id of what a full node, whose store is ``index``, displaces
    to admit ``incoming``.

    May be ``incoming``'s own id (under ``ANGLE``, when the incoming
    item is farther from the node's cluster than everything stored —
    storing it just to displace it again would churn two items instead
    of one).  Under ``ANGLE`` the victim is the max of [min-extreme,
    max-extreme, incoming] ranked by (|angle − incoming angle|, id),
    first wins on ties: read off the ladder, no item is built.
    """
    if policy is ReplacementPolicy.COSINE:
        query = SparseVector(incoming.keyword_ids, incoming.weights, system.dim)
        return index.least_similar(query).item_id
    ladder = index.angle_ladder()
    ak = incoming.angle_key
    (lo_key, lo_id), (hi_key, hi_id) = ladder[0], ladder[-1]
    return max((abs(lo_key - ak), lo_id), (abs(hi_key - ak), hi_id), (0, incoming.item_id))[1]


def _drop(result: PublishResult, victim_id: int) -> PublishResult:
    """Record that the chain ended by dropping item ``victim_id``."""
    result.success = False
    result.dropped_item_id = victim_id
    return result


def run_displacement_chain(
    system: "Meteorograph",
    home_id: int,
    item: StoredItem,
    *,
    hop_budget: Optional[int] = None,
    policy: ReplacementPolicy = ReplacementPolicy.ANGLE,
) -> PublishResult:
    """Place ``item`` at ``home_id``, displacing as needed (Fig. 2 loop).

    Every chain the cascade engine does not replay runs here: each
    unshared publish's, and each item's of a shared batch whose
    configuration refuses the cascade.  The chain visits nodes in
    increasing linear key distance from the home ("closest neighbor"
    frontier); each full node swaps the incoming item for its
    least-similar one and pushes the victim on.  A node that already
    holds the incoming id replaces that copy in place, full or not (the
    ``PeerNode.store`` contract): no victim, no push; nor is a victim
    pushed that is a superseded copy of ``item`` (see
    :func:`publish_row`).
    Charges one ``displace`` message per chain hop.  The item record
    follows every copy: each store credits its node and each eviction
    uncredits it, so a victim's credit moves with each push and is gone
    if the victim drops.
    """
    result = PublishResult(item_id=item.item_id, home=home_id, route_hops=0)
    current = home_id
    incoming = item
    budget = hop_budget
    # Built on first demand: the overwhelmingly common publish lands on
    # a non-full home and must do zero neighbor-ordering work.
    frontier = None
    tracer = system.network.obs.tracer
    ledger = system.replication
    while True:
        node = system.network.node(current)
        if not node.is_full or node.has_item(incoming.item_id):
            system.store_at(current, incoming)
            return result
        victim_id = _pick_victim(system, node.index, incoming, policy)
        if victim_id != incoming.item_id:
            # A copy of the item being published that its new placement
            # does not credit is superseded: it only makes room.
            stale = (
                victim_id == item.item_id
                and current not in ledger.holders[item.item_id]
            )
            victim = node.evict(victim_id)
            ledger.uncredit(victim_id, current)
            system.store_at(current, incoming)
            if stale:
                return result
        else:
            # Incoming itself continues down the chain unstored.
            victim = incoming
        if budget is not None and budget <= 0:
            # Fig. 2: "if (c = 0) reply a publishing failure" — but the
            # swap above has already happened at this terminal node, so
            # what drops is the chain's final displaced *victim*, never
            # the in-flight incoming item (unless the policy picked the
            # incoming itself as least similar).
            return _drop(result, victim_id)
        if frontier is None:
            frontier = system.overlay.closest_neighbors(home_id, alive_only=True)
        next_id = next(frontier, None)
        if next_id is None:
            # No node left in the overlay can take the victim.
            return _drop(result, victim_id)
        try:
            system.network.send(current, next_id, kind="displace")
        except MessageLossError:
            # The displacement push was charged but lost in flight: the
            # victim drops here, exactly the budget-exhaustion outcome —
            # the in-flight incoming item was already swapped in above.
            return _drop(result, victim_id)
        if tracer.enabled:
            tracer.event("displace", src=current, dst=next_id, item=victim_id)
        result.displacement_hops += 1
        result.chain.append(next_id)
        if budget is not None:
            budget -= 1
        current = next_id
        incoming = victim


def publish_item(
    system: "Meteorograph", origin: int, item: StoredItem
) -> PublishResult:
    """One item, unshared: route from ``origin`` to its publish key's
    home, run the displacement chain there, then place the directory
    pointer and the replicas the configuration asks for, and withdraw
    a dropped victim (its row goes once no body of it is left)."""
    config = system.config
    ledger = system.replication
    obs = system.network.obs
    publish_key = item.publish_key
    with obs.tracer.span("publish", item=item.item_id, key=publish_key) as sp:
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
                    item_id=item.item_id,
                    home=system.overlay.home(publish_key),
                    route_hops=route_hops,
                    dropped_item_id=item.item_id,
                    success=False,
                )
        with obs.metrics.timer("publish.displace_chain"):
            result = run_displacement_chain(
                system,
                home,
                item,
                hop_budget=config.hop_budget,
                policy=config.replacement_policy,
            )
        result.route_hops = route_hops
        dropped = result.dropped_item_id
        if dropped != item.item_id:
            # An item the chain dropped has no body: no row may name it.
            if config.directory_pointers:
                publish_pointer(system, home, item)
            if ledger.factor > 1:
                ledger.replicate(home, item)
            if dropped is not None:
                ledger.withdraw(dropped, src=result.chain[-1] if result.chain else home)
        sp.set(
            home=result.home,
            route_hops=route_hops,
            displacement_hops=result.displacement_hops,
            ok=result.success,
        )
        if level:
            sp.set(degraded=level)
    return result


def publish_pointer(system: "Meteorograph", origin: int, item: StoredItem) -> int:
    """Place ``item``'s §3.5.2 pointer — a row of the item itself, whose
    ``publish_key`` names the body's home — at its Eq. 5 angle key's
    home (rows are small: no capacity, no displacement), and name that
    node in the item record.  Returns the ``pointer`` route hops."""
    route = system.overlay.route(origin, item.angle_key, kind="pointer")
    assert route.home is not None
    system.network.node(route.home).add_pointer(item)
    system.replication.rows[item.item_id] = route.home
    return route.hops


def publish_row(
    system: "Meteorograph", origin: int, items: Sequence[StoredItem]
) -> list[PublishResult]:
    """One row's items (a copy per publish key) through
    :func:`publish_item`; a republish supersedes the previous placement
    and then withdraws what the new one did not reuse."""
    ledger = system.replication
    item_id = items[0].item_id
    prior = ledger.supersede(item_id) if item_id in ledger.holders else None
    results = [publish_item(system, origin, item) for item in items]
    if prior is not None:
        ledger.withdraw(item_id, *prior, src=results[0].home)
    return results


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
    copies: RowBlock,
    homes: np.ndarray,
    order: np.ndarray,
) -> None:
    """Store a displacement-free batch: one bulk store per home run.

    ``order`` is the sweep's delivery order (ring order, key order
    within a node), so each maximal stretch of equal ``homes`` along it
    is the run the sweep drops off as it passes that node: a slice of
    ``copies`` gathered once in that order.
    """
    if order.size == 0:
        return
    swept = copies.take(order)
    run_homes = homes[order]
    cuts = (np.flatnonzero(run_homes[1:] != run_homes[:-1]) + 1).tolist()
    store_run = system.store_run
    for a, b in zip([0, *cuts], [*cuts, len(swept)]):
        store_run(int(run_homes[a]), swept[a:b])


def _route_reason(system: "Meteorograph", ids: list[int]) -> Optional[str]:
    """Why one route plus a ring sweep cannot serve a batch of ``ids``,
    or ``None`` when it can (the first matching reason).  A republish
    (an id named twice, or already placed) withdraws row by row."""
    placed = system.replication.holders.keys()
    return (
        "pointers" if system.config.directory_pointers
        else "replication" if system.replication.factor > 1
        else "republish" if len(set(ids)) < len(ids) or not placed.isdisjoint(ids)
        else None
    )


def _cascade_reason(system: "Meteorograph") -> Optional[str]:
    """Why the cascade engine cannot replay a batch's displacement
    chains, or ``None`` when it can (the first matching reason).

    The engine picks victims from ladder extremes (``ANGLE`` only) and
    defers every side effect to one reconcile pass and one bulk bill, so
    anything that observes a displacement as it happens — notification
    delivery, admission metering, a fault plane's per-message verdict —
    needs the per-item chain loop.
    """
    network = system.network
    return (
        "cosine" if system.config.replacement_policy is ReplacementPolicy.COSINE
        else "notifications" if system.notifications is not None
        else "admission" if network.admission is not None
        else "link_faults" if network.link_faults is not None
        else None
    )


def _copies(rows: RowBlock, key_mat: np.ndarray) -> RowBlock:
    """Item-major fan-out: row i becomes one copy per publish key of
    ``key_mat[i]``, the copies sharing the row's keyword/weight run."""
    n_keys = key_mat.shape[1]
    if n_keys == 1:
        return rows
    copies = rows.take(np.repeat(np.arange(len(rows)), n_keys))
    copies.publish_keys = key_mat.reshape(-1)
    return copies


def run(
    system: "Meteorograph",
    rows: RowBlock,
    key_mat: np.ndarray,
    *,
    origin: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    require_shared: bool = False,
) -> list[PublishResult]:
    """Publish the items of ``rows`` — ids, band-0 publish keys, angle
    keys, norms (``Corpus.norms``), keyword/weight runs and any
    payloads — once per key of the parallel ``(n, L)`` publish-key
    matrix ``key_mat`` (its first column is ``rows.publish_keys``); one
    result per row (its band-0 placement).

    Every copy stays a row of the batch's columns (:func:`_copies`) on
    the shared branch, down to the stores; the unshared loop builds each
    copy's :class:`StoredItem` as it publishes it.  A batch of one row
    has nothing to share, so it runs unshared, as does any batch
    :func:`_route_reason` refuses; ``require_shared`` raises
    :class:`ValueError` on a refusal instead.  Origins: ``origin`` pins
    one for every row; otherwise the shared branch draws one live node
    (one scalar ``rng`` draw) for its one route and the unshared loop
    one per row (one ``size=n`` draw).
    """
    ids = rows.ids
    n = len(ids)
    n_keys = key_mat.shape[1]
    network = system.network
    metrics = network.obs.metrics
    route_reason = _route_reason(system, ids.tolist())
    if require_shared and route_reason is not None:
        raise ValueError(f"batch publish cannot share routes under {route_reason}")
    if route_reason is not None:
        metrics.counter(f"publish.batch.fallback.{route_reason}", n)
    cascade_reason = _cascade_reason(system)
    if cascade_reason is not None:
        metrics.counter(f"publish.cascade.fallback.{cascade_reason}", n)
    if n_keys > 1:
        metrics.counter("lsh.publish.items", n)
        metrics.counter("lsh.publish.copies", n * n_keys)
    shared = route_reason is None and n > 1
    live: list[int] = []
    if shared or origin is None:
        live = [nid for nid in system.overlay.ring if network.is_alive(nid)]
        if not live:
            raise RuntimeError("no live nodes to publish from")
    copies = _copies(rows, key_mat)
    if shared:
        if origin is None:
            origin = live[int(rng.integers(0, len(live)))]
        results = batch_publish(system, copies, origin=origin, live=live)
    else:
        if origin is None:
            origins = [live[d] for d in rng.integers(0, len(live), size=n).tolist()]
        else:
            origins = [origin] * n
        item = copies.item
        results = []
        for i in range(n):
            row = list(map(item, range(i * n_keys, (i + 1) * n_keys)))
            results += publish_row(system, origins[i], row)
    system.replication.register(ids, rows.angle_keys, key_mat)
    return results[::n_keys] if n_keys > 1 else results


def batch_publish(
    system: "Meteorograph",
    copies: RowBlock,
    *,
    origin: int,
    live: list[int],
) -> list[PublishResult]:
    """The shared branch of :func:`run` (Mercury-style locality batching).

    Instead of one O(log N) route per item, the batch computes every
    item's live home vectorised over ``live`` (the live node ids in key
    order), routes **once** from ``origin`` to the home of the smallest
    publish key, then walks the ring clockwise from where that route
    landed, delivering each node's run of items — N routes collapse to
    1 route plus a sweep of at most one lap (``len(live)`` ``publish``
    messages).  In key order the homes go clockwise round the ring once
    at most; the sweep delivers those at or past the landing node first
    and then wraps round to any the route overshot.

    Placement matches publishing the items one at a time in list order:
    a batch no node overflows is bulk-stored run by run (placement is
    order-free there); otherwise each item's Fig. 2 chain runs at its
    home in list order, through the cascade engine unless
    :func:`_cascade_reason` refuses it, so placements, ``success``,
    ``dropped_item_id``, ``displacement_hops`` and the ``displace`` bill
    match the unshared loop.  Only route accounting differs, by design:
    an item's ``route_hops`` is the number of sweep steps spent first
    reaching its home (the first delivered item also carries the
    route's hops), so ``sum(r.route_hops)`` is the ``publish`` bill.

    The equivalence boundary is the entry route.  Shared placement uses
    each key's live home; the unshared loop places at whatever node its
    own route reaches.  On a ring with failed nodes that are not yet
    stabilized the two differ, and a route may land past the first
    home; the sweep still starts where it landed and runs one lap at
    most.
    """
    n = len(copies)
    keys = copies.publish_keys
    network = system.network
    config = system.config
    m = len(live)
    live_sorted = np.asarray(live, dtype=np.int64)
    homes = batch_live_homes(system.space, live_sorted, keys)
    pos = np.searchsorted(live_sorted, homes)
    obs = network.obs
    tracer = obs.tracer
    results: list[Optional[PublishResult]] = [None] * n
    with tracer.span("publish_batch", items=n) as sp:
        first_key = int(keys.min())
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
        # In key order the homes go clockwise, one lap at most from the
        # first home (a home revisited at the end is a whole lap on).
        # The sweep starts where the route landed, delivers the runs at
        # or past that node in key order, then wraps round to the runs
        # the route overshot; each item's marginal cost is the step from
        # the previous run's node to its own.
        order = np.argsort(keys, kind="stable")
        key_pos = pos[order]
        lap = np.concatenate(([0], np.cumsum(np.diff(key_pos) % m)))
        cur = int(np.searchsorted(live_sorted, start_home))
        offsets = lap - (cur - int(key_pos[0])) % m
        offsets[offsets < 0] += m
        ahead = np.argsort(offsets, kind="stable")
        order = order[ahead]
        ring_offsets = offsets[ahead]
        sweep = int(ring_offsets[-1])
        route_hops_arr = np.empty(n, dtype=np.int64)
        route_hops_arr[order] = np.diff(ring_offsets, prepend=0)
        route_hops = route_hops_arr.tolist()
        route_hops[int(order[0])] += start_hops
        send = network.send
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
        homes_l = homes.tolist()
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
            arrivals = np.bincount(pos, minlength=m)
            displacement_free = bool(
                np.all((caps < 0) | (loads + arrivals <= caps))
            )
        if displacement_free:
            store_runs(system, copies, homes, order)
            results = [
                PublishResult(item_id=i, home=h, route_hops=hops)
                for i, h, hops in zip(copies.ids.tolist(), homes_l, route_hops)
            ]
        elif _cascade_reason(system) is None:
            from .cascade import cascade_placement

            with obs.metrics.timer("publish.cascade"):
                cascade_placement(
                    system,
                    copies,
                    homes_l,
                    route_hops,
                    results,
                    hop_budget=config.hop_budget,
                )
        else:
            timer = obs.metrics.timer
            for k in range(n):  # original publish order: chain outcomes match the loop
                with timer("publish.displace_chain"):
                    res = run_displacement_chain(
                        system,
                        homes_l[k],
                        copies.item(k),
                        hop_budget=config.hop_budget,
                        policy=config.replacement_policy,
                    )
                res.route_hops = route_hops[k]
                results[k] = res
        sp.set(
            route_hops=start_hops,
            sweep_hops=sweep,
            failed=sum(1 for r in results if r is not None and not r.success),
        )
    return results  # type: ignore[return-value]
