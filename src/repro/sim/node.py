"""Simulated peer node: identity, liveness, and bounded item storage.

A :class:`PeerNode` is deliberately policy-free — it stores items in
its local VSM index, holds directory pointers and enforces its capacity
``c``, while *which* item to displace on overflow (the paper's
least-similar replacement, Fig. 2) is decided by
:mod:`repro.core.publish`, which owns the Meteorograph semantics.  This
keeps the node reusable under every scheme the evaluation compares
(None / UnusedHash / +HotRegions / directory pointers / replication).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..vsm.index import LocalVsmIndex, RowBlock, StoredItem

__all__ = ["StoredItem", "PeerNode", "CapacityError"]


class CapacityError(RuntimeError):
    """Raised when adding to a full node without displacing anything."""


class PeerNode:
    """A peer with bounded item storage.

    The node's one item store is its Fig. 2 local VSM index,
    :attr:`index`: ``find``, replication, repair and the invariants
    read it through :meth:`has_item`, and the retrieve walk queries it
    directly.  It is created on the first store, so a node that never
    held an item allocates nothing (``index`` is None), and it lives in
    this object, so a node removed from the ring takes its store with
    it.  Bulk stores and evictions are all-or-nothing.

    §3.5.2 directory pointers are rows of a second index,
    :attr:`pointers`, created on the first :meth:`add_pointer`: a row is
    the item's own :class:`StoredItem`, whose ``publish_key`` names the
    node holding the body, so the pointer sweep runs the same ``query``
    as the item walk.

    Parameters
    ----------
    node_id:
        The node's key in the overlay ID space.
    capacity:
        Maximum number of item bodies stored; ``None`` means unbounded
        (the paper's Figure 7/8 "infinite storage" configuration).
        Directory pointers do not count against capacity — the paper
        argues they are "quite small in size".
    service_rate:
        Optional per-node inbox service rate (fraction of global fabric
        traffic this node can absorb sustained) — the *processing*
        analogue of storage ``capacity`` heterogeneity.  Consumed by
        :meth:`repro.sim.network.Network.attach_admission`, which seeds
        the admission controller's per-node overrides from it; ``None``
        means the controller's policy-wide default applies.
    """

    def __init__(
        self,
        node_id: int,
        capacity: Optional[int] = None,
        service_rate: Optional[float] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if service_rate is not None and service_rate <= 0:
            raise ValueError(f"service_rate must be > 0 or None, got {service_rate}")
        self.node_id = node_id
        self.capacity = capacity
        self.service_rate = service_rate
        self.alive = True
        #: The item store; None until the first store.
        self.index: Optional[LocalVsmIndex] = None
        #: The directory-pointer rows; None until the first pointer.
        self.pointers: Optional[LocalVsmIndex] = None

    # -- storage ---------------------------------------------------------
    # ``len`` and membership read the store's id map without a call: they
    # run per find probe, chain hop and invariant check.

    def __len__(self) -> int:
        index = self.index
        return 0 if index is None else len(index._slots)  # noqa: SLF001

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self) >= self.capacity

    @property
    def free_slots(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - len(self)

    def utilization(self, c_ideal: float) -> float:
        """Load as a multiple of the ideal per-node load ``c`` (Fig. 8 x-axis)."""
        if c_ideal <= 0:
            raise ValueError(f"c_ideal must be > 0, got {c_ideal}")
        return len(self) / c_ideal

    def has_item(self, item_id: int) -> bool:
        index = self.index
        return index is not None and item_id in index._slots  # noqa: SLF001

    def get_item(self, item_id: int) -> StoredItem:
        if not self.has_item(item_id):
            raise KeyError(f"node {self.node_id} does not hold item {item_id}")
        return self.index.item(item_id)

    def items(self) -> Iterator[StoredItem]:
        """The stored items, built from the rows; safe while storing."""
        index = self.index
        return iter(() if index is None else index.items_by_id().values())

    def item_ids(self) -> Iterator[int]:
        """The stored ids (no item is built); safe while storing."""
        index = self.index
        return iter(() if index is None else list(index._slots))  # noqa: SLF001

    def store(self, item: StoredItem) -> None:
        """Store an item; refuses when full (caller must displace first).

        Re-storing an item id the node already holds (a republish) is
        always allowed and replaces the old copy in place.
        """
        index = self.index
        if index is None:
            index = self.index = LocalVsmIndex()
        elif (
            self.capacity is not None
            and len(index._slots) >= self.capacity  # noqa: SLF001
            and item.item_id not in index._slots  # noqa: SLF001
        ):
            raise CapacityError(
                f"node {self.node_id} full ({self.capacity}); displace before storing"
            )
        index.add(item)

    def store_many(self, rows: RowBlock) -> None:
        """Bulk :meth:`store` of a :class:`RowBlock`, all or nothing: when
        the ids the node does not already hold would overfill it, raises
        :class:`CapacityError` with nothing stored.
        """
        if not len(rows):
            return
        index = self.index
        if self.capacity is not None:
            held = {} if index is None else index._slots  # noqa: SLF001
            fresh = set(rows.ids.tolist()).difference(held)
            if len(held) + len(fresh) > self.capacity:
                raise CapacityError(
                    f"node {self.node_id} full ({self.capacity}); "
                    f"{len(fresh)} new items do not fit"
                )
        if index is None:
            index = self.index = LocalVsmIndex()
        index.add_many(rows)

    def evict(self, item_id: int) -> StoredItem:
        """Remove and return an item (``KeyError`` if not held)."""
        index = self.index
        if index is None:
            raise KeyError(f"node {self.node_id} holds no items")
        return index.remove(item_id)

    def evict_many(self, item_ids: Sequence[int]) -> RowBlock | list:
        """Bulk :meth:`evict`, all or nothing: every id is resolved before
        any is removed, so an id the node does not hold raises
        ``KeyError`` with the store unchanged.  Duplicates evict once.
        Returns the evicted rows (``LocalVsmIndex.remove_many``)."""
        index = self.index
        if index is None:
            if item_ids:
                raise KeyError(f"node {self.node_id} holds no items")
            return []
        return index.remove_many(item_ids)

    # -- directory pointers (§3.5.2) --------------------------------------

    def add_pointer(self, item: StoredItem) -> None:
        """Hold ``item``'s directory pointer; a republish replaces it."""
        pointers = self.pointers
        if pointers is None:
            pointers = self.pointers = LocalVsmIndex()
        pointers.add(item)

    # -- lifecycle ---------------------------------------------------------

    def fail(self) -> None:
        """Mark the node dead.  Its stored state becomes unreachable but is
        kept so that a later :meth:`recover` models a rejoin with data."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (
            f"PeerNode(id={self.node_id}, items={len(self)}, "
            f"cap={cap}, alive={self.alive})"
        )
