"""Cascade placement — the finite-capacity engine of the shared publish.

When a batch overflows some node, :func:`repro.core.publish.batch_publish`
must run each item's Fig. 2 displacement chain in list order.  Run one
:func:`repro.core.publish.run_displacement_chain` per item and every
chain hop pays a store/evict on the node's ``LocalVsmIndex`` (its one
item store: a row append or tombstone plus a ladder update), although
almost every intermediate placement is transient: the item is displaced
again a few events later.

The cascade engine keeps the *exact* sequential semantics but runs the
whole batch against **lightweight shadow state** first and reconciles
real node state once at the end:

* Every displacement event is simulated in strict list order against
  per-node shadows (an item dict plus the sorted angle ladder), so
  victim selection, hop budgets, drops and chain traces are equal to the
  sequential loop *by construction* — including order-dependent
  outcomes and cross-home chain interactions that a per-home bulk pass
  would get wrong.  The equivalence property tests in
  ``tests/core/test_batch_publish.py`` pin this.
* Items that only pass through a node never touch its store: after the
  simulation, each touched node applies one net diff (bulk
  ``evict_many`` + bulk ``store_many``), which is where the
  order-of-magnitude win comes from.
* Per-home ``closest_neighbors`` frontiers are materialised once and
  shared by every chain anchored at that home (ring membership and
  liveness are frozen for the duration of a batch).
* Network accounting is unchanged: one ``displace`` message per chain
  hop, billed in one :meth:`repro.sim.network.Network.charge_bulk`
  call (which keeps ``net.sent.displace`` and the ``net.node_inbox``
  buckets exact), and with tracing enabled the same ``displace`` trace
  events are emitted.

The engine only runs where ``repro.core.publish._cascade_reason``
finds nothing to refuse: victims are ladder extremes (``ANGLE`` only),
and nothing may observe a displacement as it happens (notifications,
admission metering, a fault plane's per-message verdict).  Shadows are
seeded from the node's own store, so there is no second copy for them
to disagree with.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Optional, Sequence

from ..sim.node import PeerNode, StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph
    from .publish import PublishResult, _drop

__all__ = ["cascade_placement"]


class _Shadow:
    """Per-node shadow: capacity, items by id, sorted angle ladder, and
    the initial item map the reconcile pass diffs against — copies of
    the node's store, free to mutate: the reconcile pass writes back net
    diffs only."""

    __slots__ = ("cap", "items", "ladder", "initial")

    def __init__(self, node: PeerNode) -> None:
        index = node.index
        self.cap = node.capacity
        self.items = {} if index is None else index.items_by_id()
        self.ladder = [] if index is None else list(index.angle_ladder())
        self.initial = dict(self.items)


def cascade_placement(
    system: "Meteorograph",
    items: Sequence[StoredItem],
    homes: Sequence[int],
    route_hops: Sequence[int],
    results: list,
    *,
    hop_budget: Optional[int] = None,
    norms=None,
) -> None:
    """Place ``items`` (list order) at ``homes``, displacing as needed.

    Fills ``results[k]`` with the :class:`PublishResult` each item would
    get from the sequential chain loop.
    """
    from .publish import PublishResult, _drop

    network = system.network
    obs = network.obs
    tracer = obs.tracer
    obs_on = network._obs_on  # noqa: SLF001 - same cached flag send() uses
    shadows: dict[int, _Shadow] = {}
    frontiers: dict[int, tuple[list[int], object]] = {}
    events: Optional[list[tuple[int, int, int]]] = [] if tracer.enabled else None
    # Destinations only feed the net.node_inbox bucket.
    dsts: Optional[list[int]] = [] if obs_on else None
    overlay = system.overlay
    total_hops = 0
    failures = 0

    for k, item in enumerate(items):
        home = homes[k]
        res = PublishResult(item_id=item.item_id, home=home, route_hops=route_hops[k])
        results[k] = res
        current = home
        incoming = item
        budget = hop_budget
        frontier_i = 0
        sh = shadows.get(current)
        if sh is None:
            sh = shadows[current] = _Shadow(network.node(current))
        while True:
            smap = sh.items
            ladder = sh.ladder
            cap = sh.cap
            i_id = incoming.item_id
            ak = incoming.angle_key
            victim = None
            # A node holding the incoming id replaces it in place below,
            # full or not: no victim, no push.
            if cap is not None and len(smap) >= cap and i_id not in smap:
                # Full node under ANGLE: the victim is max() over
                # [min-extreme, max-extreme, incoming] ranked by
                # (|angle - incoming.angle|, item_id) — first-wins on
                # ties, exactly as _pick_victim computes it.
                v_key, v_id = ladder[0]
                v_d = v_key - ak if v_key >= ak else ak - v_key
                h_key, h_id = ladder[-1]
                h_d = h_key - ak if h_key >= ak else ak - h_key
                if h_d > v_d or (h_d == v_d and h_id > v_id):
                    v_d, v_id = h_d, h_id
                victim = incoming if v_d == 0 and i_id > v_id else smap[v_id]
                if victim.item_id != i_id:
                    del smap[v_id]
                    del ladder[bisect_left(ladder, (victim.angle_key, v_id))]
            if victim is None or victim.item_id != i_id:
                # Admit the incoming item: as in store_at, it replaces a
                # copy of its id held here.
                if i_id in smap:
                    del ladder[bisect_left(ladder, (smap[i_id].angle_key, i_id))]
                smap[i_id] = incoming
                insort(ladder, (ak, i_id))
            if victim is None:
                break
            if budget is not None and budget <= 0:
                _drop(res, victim)
                failures += 1
                break
            fr = frontiers.get(home)
            if fr is None:
                fr = frontiers[home] = ([], overlay.closest_neighbors(home, alive_only=True))
            flist, fgen = fr
            while frontier_i >= len(flist):
                nxt = next(fgen, None)
                if nxt is None:
                    break
                flist.append(nxt)
            if frontier_i >= len(flist):
                _drop(res, victim)
                failures += 1
                break
            next_id = flist[frontier_i]
            frontier_i += 1
            total_hops += 1
            res.displacement_hops += 1
            res.chain.append(next_id)
            if dsts is not None:
                dsts.append(next_id)
            if events is not None:
                events.append((current, next_id, victim.item_id))
            if budget is not None:
                budget -= 1
            current = next_id
            incoming = victim
            sh = shadows.get(current)
            if sh is None:
                sh = shadows[current] = _Shadow(network.node(current))

    _reconcile(system, shadows, items, norms)
    # One displace message per chain hop, billed in bulk: the bill
    # Network.send would have charged hop by hop.
    network.charge_bulk("displace", total_hops, dsts)
    if obs_on:
        metrics = obs.metrics
        metrics.counter("publish.cascade_items", len(items))
        metrics.counter("publish.cascade_spills", total_hops)
        if failures:
            metrics.counter("publish.cascade_drops", failures)
    if events is not None:
        for src, dst, iid in events:
            tracer.event("displace", src=src, dst=dst, item=iid)


def _reconcile(
    system: "Meteorograph",
    shadows: dict[int, _Shadow],
    items: Sequence[StoredItem],
    norms=None,
) -> None:
    """Apply each touched node's net diff to its store and the item
    record (one bulk store, credited in bulk, per node).

    Removals run everywhere first (collecting moved items' indexed
    norms), then each node bulk-stores its additions — equivalent to
    the sequential interleaving because per-node end states, not
    histories, determine each store's rows and ladder.
    """
    network = system.network
    ledger = system.replication
    moved_norms: dict[int, float] = {}
    plan: list[tuple[int, list[int], list[StoredItem]]] = []
    for nid, sh in shadows.items():
        initial = sh.initial
        final = sh.items
        removed = [
            iid
            for iid, it in initial.items()
            if final.get(iid) is not it
        ]
        added = [
            it
            for iid, it in final.items()
            if initial.get(iid) is not it
        ]
        if not removed and not added:
            continue
        if removed:
            node = network.node(nid)
            moved_norms.update(zip(removed, node.index.norms_of_many(removed)))
            node.evict_many(removed)
            for iid in removed:
                ledger.uncredit(iid, nid)
        plan.append((nid, removed, added))
    if not any(added for _, _, added in plan):
        return
    batch_norms: dict[int, float] = {}
    if norms is not None:
        batch_norms = dict(
            zip((it.item_id for it in items), norms.tolist())
        )
    for nid, _removed, added in plan:
        if not added:
            continue
        add_norms: Optional[list[float]] = []
        for it in added:
            n = moved_norms.get(it.item_id)
            if n is None:
                n = batch_norms.get(it.item_id)
            if n is None:
                add_norms = None
                break
            add_norms.append(n)
        system.store_run(nid, added, add_norms)
