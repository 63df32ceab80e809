"""The item record, withdrawal, and replication with failover — §3.6.

:class:`ReplicationManager` is the one record of every published item,
at every replication factor, kept as columns keyed by item id so the
write engine credits a node's whole run in one call: ``keys`` (the
Eq. 5 angle key and each publish key), ``holders`` (nodes credited with
a body) with its transpose ``held``, ``rows`` (the node holding the
§3.5.2 pointer row) and ``rank`` (the order repair visits records in).
``Meteorograph.store_at``/``store_run`` credit what they store, the
displacement chain and the cascade uncredit what they evict, a removed
node is dropped on the network's ``remove``, and :meth:`withdraw` is
the only other remover of a copy — so the contract is *credited ⇔
stored* (:func:`repro.maint.check_holder_index`).

Each item keeps ``factor`` live bodies: the primary at its home plus
``factor − 1`` replicas at the nodes numerically closest to it, exactly
where greedy routing falls back when the home dies — the paper's
``1 − p^k`` loss bound.  The periodic monitoring is one loop,
:meth:`~ReplicationManager.repair_each` over
:meth:`~ReplicationManager.repair_record`: :meth:`~ReplicationManager.repair`
runs it over every record, :class:`repro.maint.RepairEngine` over the
items its liveness feed marked dirty.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from itertools import chain, count
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from ..overload.admission import BackpressureError
from ..sim.linkfaults import MessageLossError
from ..sim.node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["ReplicationManager"]


class ReplicationManager:
    """The item record, and ``factor`` copies of every published item
    (``factor=1``: one holder per publish key, the paper's baseline).
    A full replica candidate is skipped, not displaced into
    (``skipped_replicas`` counts how often)."""

    def __init__(self, system: "Meteorograph", factor: int) -> None:
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        self.network = system.network
        self.overlay = system.overlay
        self.factor = factor
        #: item id -> (angle key, publish key, ...) of its latest publish.
        self.keys: dict[int, tuple[int, ...]] = {}
        #: item id -> nodes credited with a body copy (a set, or the
        #: write engine's tuple or list; see :meth:`credit_run`).
        self.holders: dict[int, Collection[int]] = {}
        #: node id -> item ids credited to it; a dead node keeps its
        #: entry (its copies resurface on recovery), a removed one not.
        self.held: dict[int, set[int]] = {}
        #: item id -> node holding its pointer row (None: the node left).
        self.rows: dict[int, Optional[int]] = {}
        #: item id -> the order its record was opened in.
        self.rank: dict[int, int] = {}
        self.skipped_replicas = 0
        #: ``on_under_replicated(item_ids)``, set by the repair engine:
        #: publish-time shortfalls and a removed node's items.
        self.on_under_replicated: Optional[Callable[[Collection[int]], None]] = None
        # Held weakly: a dropped system is freed without a collection.
        record = weakref.WeakMethod(self._on_liveness)
        system.network.subscribe_liveness(
            lambda node_id, change: (on := record()) and on(node_id, change)
        )

    # -- the record ------------------------------------------------------------

    def register(
        self, item_ids: np.ndarray, angle_keys: np.ndarray, key_mat: np.ndarray
    ) -> None:
        """Name each published item: its angle key, then its ``(n, L)``
        row of publish keys."""
        self.keys.update(
            zip(item_ids.tolist(), zip(angle_keys.tolist(), *key_mat.T.tolist()))
        )

    def credit(self, item_id: int, node_id: int) -> None:
        """Record that ``node_id`` stores a body copy of ``item_id``; the
        item's first copy opens its record."""
        if item_id in self.holders:
            self._own(item_id).add(node_id)
        else:
            self.holders[item_id] = {node_id}
            self.rank[item_id] = len(self.rank)
        self.held.setdefault(node_id, set()).add(item_id)

    def credit_run(self, node_id: int, item_ids: Sequence[int]) -> None:
        """Bulk :meth:`credit` of one node run of the write engine (which
        runs at factor 1 only): the items the run opens share one holder
        tuple, so a run costs no call per copy and no object per opened
        item.  An item met again (a later band, a moved victim) gets a
        list of its own; :meth:`credit` and :meth:`uncredit` turn either
        into a set on its first change."""
        holders = self.holders
        get = holders.get
        ids = dict.fromkeys(item_ids)
        shared = (node_id,)
        opened: dict[int, tuple[int]] = {}
        for item_id in ids:
            h = get(item_id)
            if h is None:
                opened[item_id] = shared
            elif type(h) is list:
                h.append(node_id)
            elif type(h) is tuple:
                holders[item_id] = [*h, node_id]
            else:
                h.add(node_id)
        self.rank.update(zip(opened, count(len(self.rank))))
        holders.update(opened)
        self.held.setdefault(node_id, set()).update(ids)

    def uncredit(self, item_id: int, node_id: int) -> None:
        """Record that ``node_id`` no longer stores ``item_id``."""
        self._own(item_id).discard(node_id)
        self.held[node_id].discard(item_id)

    def _own(self, item_id: int) -> set[int]:
        """The item's holders as a set of its own (the write engine's
        shared tuple or list is copied on the first change)."""
        holders = self.holders[item_id]
        if type(holders) is not set:
            holders = self.holders[item_id] = set(holders)
        return holders

    def items_of(self, node_id: int) -> set[int]:
        """The items the record credits to ``node_id`` (do not mutate)."""
        return self.held.get(node_id, set())

    def live_holders(self, item_id: int) -> list[int]:
        """The item's holders that are alive and hold the copy, in
        holder order (the first is the repair source)."""
        network = self.network
        return [
            h
            for h in self.holders.get(item_id, ())
            if network.is_alive(h) and network.node(h).has_item(item_id)
        ]

    def live_copies(self, item_id: int) -> int:
        return len(self.live_holders(item_id))

    def _on_liveness(self, node_id: int, change: str) -> None:
        if change != "remove":
            return
        held = self.held.pop(node_id, set())
        for item_id in held:
            self._own(item_id).discard(node_id)
        rows = self.rows
        if rows:  # its rows left with it; its bodiless items lose theirs
            rows.update({i: None for i, holder in rows.items() if holder == node_id})
            for item_id in held:
                self.withdraw(item_id, src=node_id)
        if held and self.on_under_replicated is not None:
            self.on_under_replicated(held)

    # -- withdrawal -------------------------------------------------------------

    def supersede(self, item_id: int) -> tuple[Collection[int], Optional[int]]:
        """Open a new placement of ``item_id``: its body holders and row
        holder come off the record, returned for :meth:`withdraw` once
        the new placement (the credits in between) is done."""
        bodies = self.holders.get(item_id, ())
        if bodies:
            self.holders[item_id] = set()
        return bodies, self.rows.pop(item_id, None)

    def withdraw(
        self,
        item_id: int,
        bodies: Collection[int] = (),
        row: Optional[int] = None,
        *,
        src: int,
    ) -> int:
        """Take copies of ``item_id`` off their nodes — the body on each
        node of ``bodies`` and the row on ``row``, unless the record
        credits it again (a new placement reused it) — and the row the
        record names once it credits no body.  One ``withdraw`` message
        from ``src`` per copy removed; returns how many.

        A republish and expiry pass what :meth:`supersede` returned; a
        dropped victim passes nothing, so only a bodiless row goes.
        """
        holders = self.holders.get(item_id, ())
        rows = {row}
        if not holders:  # a row outlives no body
            rows.add(self.rows.pop(item_id, None))
        rows -= {None, self.rows.get(item_id)}
        node = self.network.node
        removed = 0
        for node_id in bodies:
            if node_id not in holders and self._take(src, node_id, node(node_id).index, item_id):
                self.held[node_id].discard(item_id)
                removed += 1
        for node_id in rows:
            removed += self._take(src, node_id, node(node_id).pointers, item_id)
        return removed

    def _take(self, src: int, node_id: int, store, item_id: int) -> bool:
        """Remove ``item_id`` from ``store``, ``node_id``'s body index or
        pointer rows, billing one ``withdraw`` message; False if it holds
        none.  The removal stands whatever becomes of the message: a
        dead holder drops the copy before it serves it again."""
        if store is None or item_id not in store:
            return False
        try:
            self.network.try_send(src, node_id, kind="withdraw")
        except (MessageLossError, BackpressureError):
            pass
        store.remove(item_id)
        return True

    # -- placement ------------------------------------------------------------

    def replicate(self, home_id: int, item: StoredItem) -> int:
        """Place ``factor − 1`` replicas of ``item``, just published to
        ``home_id``, on the home's ring neighbours (one leaf-set hop,
        one ``replicate`` message each; a neighbour holding a superseded
        copy gets the new one in its place).  Returns the copies placed.
        """
        item_id = item.item_id
        holders = self.holders[item_id]
        placed = 0
        for target in self.overlay.replica_homes(home_id, self.factor - 1):
            if target in holders:
                continue
            if self.place_copy(home_id, target, item):
                placed += 1
            if len(holders) >= self.factor:
                break
        tracer = self.network.obs.tracer
        if tracer.enabled and placed:
            tracer.event("replicate", item=item_id, primary=home_id, placed=placed)
        if len(holders) < self.factor and self.on_under_replicated is not None:
            self.on_under_replicated((item_id,))
        return placed

    def place_copy(self, src: int, target: int, item: StoredItem) -> bool:
        """Push a replica of ``item`` from ``src`` to ``target`` and
        credit it; False if the push is lost or ``target`` is full (and
        holds no copy to replace)."""
        node = self.network.try_send(src, target, kind="replicate")
        if node is None:
            return False
        if node.is_full and not node.has_item(item.item_id):
            self.skipped_replicas += 1
            return False
        primary = src if item.replica_of is None else item.replica_of
        node.store(replace(item, replica_of=primary))  # replicas notify no one
        self.credit(item.item_id, target)
        return True

    # -- maintenance ---------------------------------------------------------------

    def repair_record(self, item_id: int) -> tuple[int, int]:
        """Restore one item's copy count from a surviving holder onto the
        current replica homes of its key; ``(placed, live_after)``."""
        live = self.live_holders(item_id)
        if not live or len(live) >= self.factor:
            return 0, len(live)
        src = live[0]
        new_home = self.overlay.live_home(self.keys[item_id][1])
        if new_home is None:
            return 0, len(live)
        item = self.network.node(src).get_item(item_id)
        # Walk candidates over live nodes: a fixed window can be all dead
        # ex-holders clustered around the home, with live targets beyond.
        candidates = chain(
            (new_home,), self.overlay.closest_neighbors(new_home, wrap=True)
        )
        placed = 0
        for target in candidates:
            if len(live) >= self.factor:
                break
            if target in live or not self.network.is_alive(target):
                continue
            if self.place_copy(src, target, item):
                live.append(target)
                placed += 1
        return placed, len(live)

    def repair_each(self, item_ids: Iterable[int]) -> tuple[int, int, list[int]]:
        """The repair loop: :meth:`repair_record` over ``item_ids`` in
        order.  Returns ``(placed, items repaired, short)``; ``short``
        lists items left with live copies but fewer than the factor."""
        factor = self.factor
        placed = repaired = 0
        short: list[int] = []
        for item_id in item_ids:
            n, live_after = self.repair_record(item_id)
            if n:
                placed += n
                repaired += 1
            if 0 < live_after < factor:
                short.append(item_id)
        return placed, repaired, short

    def repair(self) -> int:
        """The full scan: :meth:`repair_each` over every record in rank
        order, O(published items) — :class:`repro.maint.RepairEngine`
        runs the same loop over its dirty set.  Returns replicas placed.
        """
        return self.repair_each(self.holders)[0]
