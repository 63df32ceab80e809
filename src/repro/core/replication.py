"""Replication and failover — §3.6.

Each published item keeps ``k`` live copies: the primary at its home
("virtual home") plus ``k−1`` replicas at the nodes with IDs
numerically closest to the home.  Because those are exactly the nodes
greedy routing falls back to when the home dies, a query that routes to
the closest *live* node lands on a replica whenever any copy survives —
the paper's ``1 − p^k`` loss bound.

The manager also implements the periodic monitoring/republishing the
paper describes: :meth:`ReplicationManager.repair` re-establishes
missing copies from any surviving holder, and :meth:`schedule` wires it
to the event engine.

:meth:`repair` is the **full-scan fallback**: it touches every record
per tick, which is O(published items) regardless of how few nodes
failed.  The incremental path — :class:`repro.maint.RepairEngine` —
subscribes to the hooks below (``on_copy_placed`` /
``on_under_replicated``) plus the network's liveness notifications and
repairs only the dirty set, delegating the per-record work to
:meth:`repair_record` so both paths place copies identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..sim.node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import PeriodicTask
    from .meteorograph import Meteorograph

__all__ = ["ReplicationManager", "ReplicaRecord"]


@dataclass
class ReplicaRecord:
    """Bookkeeping for one item's copies (primary + replicas)."""

    item: StoredItem
    primary: int
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
        self.skipped_replicas = 0
        #: Maintenance hooks (set by :class:`repro.maint.RepairEngine`):
        #: ``on_copy_placed(item_id, node_id)`` fires whenever a node
        #: becomes a holder of an item (primary registration, replica
        #: push, repair placement); ``on_under_replicated(item_id)``
        #: fires when a publish-time replicate could not reach the
        #: configured factor (targets dead or full).
        self.on_copy_placed: Optional[Callable[[int, int], None]] = None
        self.on_under_replicated: Optional[Callable[[int], None]] = None

    # -- placement ------------------------------------------------------------

    def _register_holder(self, record: ReplicaRecord, node_id: int) -> None:
        record.holders.add(node_id)
        if self.on_copy_placed is not None:
            self.on_copy_placed(record.item.item_id, node_id)

    def replicate(self, home_id: int, item: StoredItem) -> int:
        """Place ``factor − 1`` replicas around ``home_id``.

        Returns the number of ``replicate`` messages charged (one per
        placed copy; the replication homes are the home's immediate
        ring neighbors, so each push is a single hop via the leaf set).
        """
        record = self.records.setdefault(
            item.item_id, ReplicaRecord(item=item, primary=home_id, holders=set())
        )
        self._register_holder(record, home_id)
        if self.factor == 1:
            return 0
        placed = 0
        for target in self.system.overlay.replica_homes(home_id, self.factor - 1):
            if target in record.holders:
                continue
            if self._place_replica(home_id, target, item, record):
                placed += 1
            if len(record.holders) >= self.factor:
                break
        tracer = self.system.network.obs.tracer
        if tracer.enabled and placed:
            tracer.event("replicate", item=item.item_id, primary=home_id, placed=placed)
        if len(record.holders) < self.factor and self.on_under_replicated is not None:
            self.on_under_replicated(item.item_id)
        return placed

    def _place_replica(
        self, src: int, target: int, item: StoredItem, record: ReplicaRecord
    ) -> bool:
        node = self.system.network.try_send(src, target, kind="replicate")
        if node is None:
            return False
        if node.is_full:
            self.skipped_replicas += 1
            return False
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
        self._register_holder(record, target)
        return True

    # -- introspection -------------------------------------------------------------

    def live_copies(self, item_id: int) -> int:
        """How many copies of an item are currently reachable."""
        record = self.records.get(item_id)
        if record is None:
            return 0
        net = self.system.network
        return sum(
            1
            for h in record.holders
            if h in net and net.is_alive(h) and net.node(h).has_item(item_id)
        )

    # -- maintenance ---------------------------------------------------------------

    def repair_record(self, item_id: int, record: ReplicaRecord) -> tuple[int, int]:
        """Restore one item's copy count; returns ``(placed, live_after)``.

        The shared per-record body of both repair paths: the full scan
        below and the incremental :class:`repro.maint.RepairEngine`
        call exactly this, which is what makes their placements
        provably identical.  Any surviving holder acts as the source;
        new copies go to the current replica homes of the item's key
        (the home may have shifted after departures).
        """
        live = [
            h
            for h in record.holders
            if self.system.network.is_alive(h)
            and self.system.network.node(h).has_item(item_id)
        ]
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
        candidates = (
            nid
            for source in (
                (new_home,),
                self.system.overlay.closest_neighbors(new_home, wrap=True),
            )
            for nid in source
        )
        placed = 0
        for target in candidates:
            if len(live) >= self.factor:
                break
            if target in live or not self.system.network.is_alive(target):
                continue
            if self._place_replica(src, target, record.item, record):
                live.append(target)
                placed += 1
        return placed, len(live)

    def repair(self) -> int:
        """Republish items whose live copy count dropped below ``factor``.

        This is the **full-scan** maintenance pass: every record is
        examined per tick, O(published items).  It remains the fallback
        that also catches drift the liveness feed cannot see (e.g. a
        primary displaced off a recorded holder by a later publish);
        churn-scale runs should prefer the incremental
        :class:`repro.maint.RepairEngine`.  Returns replicas placed.
        """
        placed = 0
        for item_id, record in self.records.items():
            placed += self.repair_record(item_id, record)[0]
        return placed

    def schedule(self, interval: float) -> "PeriodicTask":
        """Run :meth:`repair` periodically on the attached simulator."""
        sim = self.system.network.simulator
        if sim is None:
            raise RuntimeError("network has no simulator for periodic repair")
        return sim.schedule_every(interval, lambda: self.repair())
