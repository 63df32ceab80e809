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
  per-node shadows made of integers — a copy is a *row* of the batch's
  :class:`~repro.vsm.index.RowBlock` (or of a seeded node's stored
  rows), a shadow maps id → row and keeps its angle ladder as packed
  ``(angle key, id)`` ints (:class:`_Rows`) — so victim selection, hop
  budgets, drops and chain traces are equal to the sequential loop *by
  construction*, including order-dependent outcomes and cross-home
  chain interactions that a per-home bulk pass would get wrong.  The
  equivalence property tests in ``tests/core/test_batch_publish.py``
  pin this.
* Items that only pass through a node never touch its store: after the
  simulation, each touched node applies one net diff (bulk
  ``evict_many``, then one ``store_many`` of rows gathered from the
  batch's columns — no per-copy object is built), which is where the
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

import numpy as np

from ..vsm.index import RowBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["cascade_placement"]


class _Shadow:
    """Per-node shadow: capacity, id → row of the items held, the
    ladder of packed ``(angle key, id)`` ints, and the initial id → row
    map the reconcile pass diffs against."""

    __slots__ = ("cap", "items", "ladder", "initial")

    def __init__(self, cap: Optional[int], items: dict[int, int], ladder: list[int]) -> None:
        self.cap = cap
        self.items = items
        self.ladder = ladder
        self.initial = dict(items)


class _Rows:
    """The cascade's row space: the batch's rows, then each seeded
    node's stored rows as its shadow is created, with the id and angle
    key of every row as Python ints — and the ladder packing.

    A ladder entry is ``(angle_key << shift) | (id - low)``: with every
    id in ``[low, low + 2**shift)`` and angle keys non-negative, packed
    ints order exactly as ``(angle key, id)`` pairs.  The bounds cover
    the batch's ids and every id the item record names, which is every
    id a node holds (*credited ⇔ stored*).
    """

    def __init__(self, system: "Meteorograph", batch: RowBlock) -> None:
        self.blocks = [batch]
        self.bases = [0]  # the position of each block's first row
        self.ids = batch.ids.tolist()
        self.angle_keys = batch.angle_keys.tolist()
        self.shadows: dict[int, _Shadow] = {}
        named = system.replication.holders
        self.low = min(0, min(self.ids, default=0), min(named, default=0))
        self.high = max(max(self.ids, default=0), max(named, default=0))
        self.shift = (self.high - self.low).bit_length()

    def seed(self, node) -> _Shadow:
        """The shadow of ``node``'s store, its rows appended to the space."""
        index = node.index
        items: dict[int, int] = {}
        ladder: list[int] = []
        if index is not None and len(index):
            rows = index.rows()
            ids = rows.ids.tolist()
            aks = rows.angle_keys.tolist()
            low, shift = self.low, self.shift
            if min(ids) < low or max(ids) > self.high:
                raise RuntimeError(
                    f"node {node.node_id} holds an item the item record does not name"
                )
            base = len(self.ids)
            self.ids += ids
            self.angle_keys += aks
            self.blocks.append(rows)
            self.bases.append(base)
            items = dict(zip(ids, range(base, base + len(ids))))
            ladder = sorted([(a << shift) | (i - low) for a, i in zip(aks, ids)])
        sh = self.shadows[node.node_id] = _Shadow(node.capacity, items, ladder)
        return sh

    def take(self, rows: list[int]) -> RowBlock:
        """The block of ``rows`` (positions in the space), in order.  Rows
        of one source block share its flats; rows spanning several are
        joined from per-block gathers, so only their runs are copied."""
        blocks = self.blocks
        if len(blocks) == 1:
            return blocks[0].take(rows)
        bases = self.bases
        rows_a = np.asarray(rows, dtype=np.int64)
        src = np.searchsorted(bases, rows_a, side="right") - 1
        order = np.argsort(src, kind="stable")
        used, firsts = np.unique(src[order], return_index=True)
        parts = [
            blocks[b].take(rows_a[sel] - bases[b])
            for b, sel in zip(used.tolist(), np.split(order, firsts[1:]))
        ]
        if len(parts) == 1:
            return parts[0]
        # Joined block by block; one take restores the order asked for.
        return RowBlock.concat(parts).take(np.argsort(order))


def cascade_placement(
    system: "Meteorograph",
    copies: RowBlock,
    homes: Sequence[int],
    route_hops: Sequence[int],
    results: list,
    *,
    hop_budget: Optional[int] = None,
) -> None:
    """Place the rows of ``copies`` (in order) at ``homes``, displacing
    as needed.

    Fills ``results[k]`` with the :class:`PublishResult` row ``k`` would
    get from the sequential chain loop.  Every copy is a row index into
    the batch's columns (or, for an item a node held before, into that
    node's seeded rows) from here to the reconcile's bulk stores.
    """
    from .publish import PublishResult, _drop

    network = system.network
    obs = network.obs
    tracer = obs.tracer
    obs_on = network._obs_on  # noqa: SLF001 - same cached flag send() uses
    space = _Rows(system, copies)
    row_ids = space.ids
    row_aks = space.angle_keys
    low, shift = space.low, space.shift
    mask = (1 << shift) - 1
    shadows = space.shadows
    frontiers: dict[int, tuple[list[int], object]] = {}
    events: Optional[list[tuple[int, int, int]]] = [] if tracer.enabled else None
    # Destinations only feed the net.node_inbox bucket.
    dsts: Optional[list[int]] = [] if obs_on else None
    overlay = system.overlay
    node = network.node
    total_hops = 0
    failures = 0

    for k in range(len(copies)):  # the batch's rows; seeded rows follow them
        home = homes[k]
        res = PublishResult(item_id=row_ids[k], home=home, route_hops=route_hops[k])
        results[k] = res
        current = home
        row = k
        i_id = row_ids[k]
        ak = row_aks[k]
        budget = hop_budget
        frontier_i = 0
        sh = shadows.get(current)
        if sh is None:
            sh = space.seed(node(current))
        while True:
            smap = sh.items
            ladder = sh.ladder
            cap = sh.cap
            v_id = None
            # A node holding the incoming id replaces it in place below,
            # full or not: no victim, no push.
            held = smap.get(i_id)
            if held is None and cap is not None and len(smap) >= cap:
                # Full node under ANGLE: the victim is max() over
                # [min-extreme, max-extreme, incoming] ranked by
                # (|angle - incoming.angle|, item_id) — first-wins on
                # ties, exactly as _pick_victim computes it.
                lo_p = ladder[0]
                hi_p = ladder[-1]
                v_key = lo_p >> shift
                v_id = (lo_p & mask) + low
                v_d = v_key - ak if v_key >= ak else ak - v_key
                h_key = hi_p >> shift
                h_id = (hi_p & mask) + low
                h_d = h_key - ak if h_key >= ak else ak - h_key
                top = h_d > v_d or (h_d == v_d and h_id > v_id)
                if top:
                    v_d, v_id, v_key = h_d, h_id, h_key
                if v_d == 0 and i_id > v_id:
                    v_id = i_id  # the incoming item itself moves on
                else:
                    # The victim pops off its end of the ladder.
                    v_row = smap.pop(v_id)
                    if top:
                        ladder.pop()
                    else:
                        del ladder[0]
            if v_id != i_id:
                # Admit the incoming item: as in store_at, it replaces a
                # copy of its id held here.
                packed = (ak << shift) | (i_id - low)
                if held is not None:
                    old = (row_aks[held] << shift) | (i_id - low)
                    if old != packed:
                        del ladder[bisect_left(ladder, old)]
                        insort(ladder, packed)
                else:
                    insort(ladder, packed)
                smap[i_id] = row
            if v_id is None:
                break
            if budget is not None and budget <= 0:
                _drop(res, v_id)
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
                _drop(res, v_id)
                failures += 1
                break
            next_id = flist[frontier_i]
            frontier_i += 1
            res.chain.append(next_id)
            if dsts is not None:
                dsts.append(next_id)
            if events is not None:
                events.append((current, next_id, v_id))
            if budget is not None:
                budget -= 1
            current = next_id
            if v_id != i_id:
                row, i_id, ak = v_row, v_id, v_key
            sh = shadows.get(current)
            if sh is None:
                sh = space.seed(node(current))
        if frontier_i:  # one hop per frontier step taken
            res.displacement_hops = frontier_i
            total_hops += frontier_i

    _reconcile(system, shadows, space)
    # One displace message per chain hop, billed in bulk: the bill
    # Network.send would have charged hop by hop.
    network.charge_bulk("displace", total_hops, dsts)
    if obs_on:
        metrics = obs.metrics
        metrics.counter("publish.cascade_items", len(copies))
        metrics.counter("publish.cascade_spills", total_hops)
        if failures:
            metrics.counter("publish.cascade_drops", failures)
    if events is not None:
        for src, dst, iid in events:
            tracer.event("displace", src=src, dst=dst, item=iid)


def _reconcile(system: "Meteorograph", shadows: dict[int, _Shadow], space: _Rows) -> None:
    """Apply each touched node's net diff to its store and the item
    record: one bulk eviction, then one bulk store gathered from the row
    space (credited in bulk), per node.

    A row names one copy, so a node's diff is the ids whose row changed
    (removed) and the rows that are new (added).  Removals run
    everywhere first, then each node stores its additions — equivalent
    to the sequential interleaving because per-node end states, not
    histories, determine each store's rows and ladder.
    """
    network = system.network
    ledger = system.replication
    plan: list[tuple[int, list[int]]] = []
    for nid, sh in shadows.items():
        initial = sh.initial
        final = sh.items
        if initial:
            removed = [iid for iid, r in initial.items() if final.get(iid) != r]
            added = [r for iid, r in final.items() if initial.get(iid) != r]
        else:
            removed, added = [], list(final.values())
        if removed:
            network.node(nid).evict_many(removed)
            for iid in removed:
                ledger.uncredit(iid, nid)
        if added:
            plan.append((nid, added))
    if not plan:
        return
    # One gather of every node's additions, then a slice per node.
    rows = space.take([r for _, added in plan for r in added])
    store_run = system.store_run
    at = 0
    for nid, added in plan:
        store_run(nid, rows[at : at + len(added)])
        at += len(added)
