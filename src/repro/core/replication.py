"""Replication and failover — §3.6.

Each published item keeps ``k`` live copies: the primary at its home
("virtual home") plus ``k−1`` replicas at the nodes with IDs
numerically closest to the home.  Because those are exactly the nodes
greedy routing falls back to when the home dies, a query that routes to
the closest *live* node lands on a replica whenever any copy survives —
the paper's ``1 − p^k`` loss bound.

The manager is the one record of who holds a copy: a
:class:`ReplicaRecord` per item (its holders) and, transposed, the
items credited to each node.  Both sides change only through
:meth:`ReplicationManager.credit`, :meth:`~ReplicationManager.uncredit`,
:meth:`~ReplicationManager.forget_item` and
:meth:`~ReplicationManager.drop_node`, and every writer of a replicated
system's stores calls them — the displacement chain moves a victim's
credit with the victim, the soft-state purge forgets the item, and the
network's ``remove`` notification drops the node — so the ledger's
contract is *credited ⇔ stored* for every registered node.

The paper's periodic monitoring/republishing is one loop,
:meth:`~ReplicationManager.repair_each`, over the per-record body
:meth:`~ReplicationManager.repair_record`: :meth:`~ReplicationManager.repair`
runs it over every record (the full scan, O(published items)), and
:class:`repro.maint.RepairEngine` over the items its liveness feed
marked dirty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional

from ..sim.node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["ReplicationManager", "ReplicaRecord"]


@dataclass
class ReplicaRecord:
    """One item's copies: its latest publish (``item``, routed to
    ``primary``), the nodes credited with a copy, and the record's
    creation rank (repair visits records in rank order)."""

    item: StoredItem
    primary: int
    rank: int
    holders: set[int] = field(default_factory=set)


class ReplicationManager:
    """Maintains ``factor`` copies of every published item.

    ``factor=1`` means primary-only (replication effectively off, the
    paper's baseline curve).  Replicas respect node capacity: a full
    candidate is skipped rather than displacing real items, and
    ``skipped_replicas`` counts how often that happened.
    """

    def __init__(self, system: "Meteorograph", factor: int) -> None:
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        self.system = system
        self.factor = factor
        self.records: dict[int, ReplicaRecord] = {}
        #: node id -> item ids credited to it; the transpose of the
        #: records' holders.  Dead nodes keep their entries (their
        #: copies resurface on recovery); removed nodes lose them.
        self.held: dict[int, set[int]] = {}
        self._next_rank = 0
        self.skipped_replicas = 0
        #: ``on_under_replicated(item_ids)`` (set by
        #: :class:`repro.maint.RepairEngine`): items a publish could not
        #: replicate to the factor, and the items of a removed node.
        self.on_under_replicated: Optional[Callable[[Collection[int]], None]] = None
        system.network.subscribe_liveness(self._on_liveness)

    # -- the ledger -------------------------------------------------------------

    def credit(self, item: StoredItem, node_id: int) -> None:
        """Record that ``node_id`` stores a copy of ``item``; the item's
        first copy opens its record."""
        item_id = item.item_id
        record = self.records.get(item_id)
        if record is None:
            record = self.records[item_id] = ReplicaRecord(
                item=item, primary=node_id, rank=self._next_rank
            )
            self._next_rank += 1
        record.holders.add(node_id)
        self.held.setdefault(node_id, set()).add(item_id)

    def uncredit(self, item_id: int, node_id: int) -> None:
        """Record that ``node_id`` no longer stores ``item_id`` (which
        the ledger credits to it)."""
        self.records[item_id].holders.discard(node_id)
        self.held[node_id].discard(item_id)

    def forget_item(self, item_id: int) -> None:
        """Close an item's record once every copy of it is gone."""
        record = self.records.pop(item_id, None)
        if record is not None:
            for node_id in record.holders:
                self.held[node_id].discard(item_id)

    def drop_node(self, node_id: int) -> set[int]:
        """Uncredit a node that left with its store; returns what it held."""
        held = self.held.pop(node_id, set())
        for item_id in held:
            self.records[item_id].holders.discard(node_id)
        return held

    def items_of(self, node_id: int) -> set[int]:
        """The items the ledger credits to ``node_id`` (do not mutate)."""
        return self.held.get(node_id, set())

    def live_holders(self, record: ReplicaRecord) -> list[int]:
        """The record's holders that are alive and hold the copy, in
        holder order (the first is the repair source)."""
        network = self.system.network
        item_id = record.item.item_id
        return [
            h
            for h in record.holders
            if network.is_alive(h) and network.node(h).has_item(item_id)
        ]

    def live_copies(self, item_id: int) -> int:
        """How many copies of an item are currently reachable."""
        record = self.records.get(item_id)
        return 0 if record is None else len(self.live_holders(record))

    def _on_liveness(self, node_id: int, change: str) -> None:
        if change == "remove":
            held = self.drop_node(node_id)
            if held and self.on_under_replicated is not None:
                self.on_under_replicated(held)

    # -- placement ------------------------------------------------------------

    def replicate(self, home_id: int, item: StoredItem) -> int:
        """Place ``factor − 1`` replicas around ``home_id``.

        ``item`` has just been published to ``home_id``; the
        displacement chain credited the node it landed on, which opened
        the record.  The record takes this publish's item and home, so a
        republish under a new key repairs the new key's copies.

        Returns the number of ``replicate`` messages charged (one per
        placed copy; the replication homes are the home's immediate
        ring neighbors, so each push is a single hop via the leaf set).
        """
        record = self.records[item.item_id]
        record.item = item
        record.primary = home_id
        placed = 0
        for target in self.system.overlay.replica_homes(home_id, self.factor - 1):
            if target in record.holders:
                continue
            if self.place_copy(home_id, target, record):
                placed += 1
            if len(record.holders) >= self.factor:
                break
        tracer = self.system.network.obs.tracer
        if tracer.enabled and placed:
            tracer.event("replicate", item=item.item_id, primary=home_id, placed=placed)
        if len(record.holders) < self.factor and self.on_under_replicated is not None:
            self.on_under_replicated((item.item_id,))
        return placed

    def place_copy(self, src: int, target: int, record: ReplicaRecord) -> bool:
        """Push a replica of ``record``'s item from ``src`` to ``target``
        and credit it; False if the push is lost or ``target`` is full."""
        node = self.system.network.try_send(src, target, kind="replicate")
        if node is None:
            return False
        if node.is_full:
            self.skipped_replicas += 1
            return False
        item = record.item
        replica = StoredItem(
            item_id=item.item_id,
            publish_key=item.publish_key,
            angle_key=item.angle_key,
            keyword_ids=item.keyword_ids,
            weights=item.weights,
            payload=item.payload,
            replica_of=record.primary,
        )
        self.system.store_at(target, replica)
        self.credit(replica, target)
        return True

    # -- maintenance ---------------------------------------------------------------

    def repair_record(self, item_id: int, record: ReplicaRecord) -> tuple[int, int]:
        """Restore one item's copy count; returns ``(placed, live_after)``.

        Any surviving holder acts as the source; new copies go to the
        current replica homes of the item's key (the home may have
        shifted after departures).
        """
        live = self.live_holders(record)
        if not live or len(live) >= self.factor:
            return 0, len(live)
        src = live[0]
        new_home = self.system.overlay.live_home(record.item.publish_key)
        if new_home is None:
            return 0, len(live)
        # Walk replica homes in preference order *over live nodes*: a
        # fixed-size candidate window can be exhausted entirely by dead
        # ex-holders clustered around the home (they were placed there
        # by construction), leaving the factor unrestored even though
        # live targets exist one step further out.
        candidates = chain(
            (new_home,), self.system.overlay.closest_neighbors(new_home, wrap=True)
        )
        placed = 0
        for target in candidates:
            if len(live) >= self.factor:
                break
            if target in live or not self.system.network.is_alive(target):
                continue
            if self.place_copy(src, target, record):
                live.append(target)
                placed += 1
        return placed, len(live)

    def repair_each(
        self, records: Iterable[ReplicaRecord]
    ) -> tuple[int, int, list[int]]:
        """The repair loop: :meth:`repair_record` over ``records`` in the
        given order.  Returns ``(placed, items repaired, short)``, where
        ``short`` lists the items left with at least one live copy but
        fewer than the factor (no live home, or every candidate full or
        dead)."""
        factor = self.factor
        placed = repaired = 0
        short: list[int] = []
        for record in records:
            item_id = record.item.item_id
            n, live_after = self.repair_record(item_id, record)
            if n:
                placed += n
                repaired += 1
            if 0 < live_after < factor:
                short.append(item_id)
        return placed, repaired, short

    def repair(self) -> int:
        """Republish items whose live copy count dropped below ``factor``.

        The full scan: :meth:`repair_each` over every record, O(published
        items) per call; churn-scale runs use the incremental
        :class:`repro.maint.RepairEngine`, which runs the same loop over
        its dirty set.  Returns replicas placed.
        """
        return self.repair_each(self.records.values())[0]
