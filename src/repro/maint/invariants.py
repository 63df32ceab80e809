"""Machine-checked invariants for the chaos harness.

After a seeded fault schedule (loss × duplication × partition × churn,
:mod:`repro.maint.scenarios`) quiesces — faults off, repair and
anti-entropy ticks drained — the system must be *provably* healthy, not
just pass a spot-check.  This module states the health conditions as
four checkable invariants over live state:

1. **Reachability** (:func:`check_reachability`) — every item with at
   least one live copy is discoverable from its live closest home
   within the standard §3.3 walk window: the node greedy routing lands
   on, or one of its nearby ring neighbors, actually holds a copy.
   This is the end-to-end promise availability probes sample; the
   invariant checks it exhaustively and cheaply (no messages — it
   inspects state the way an oracle would).
2. **Replica counts** (:func:`check_replica_counts`) — no item sits
   *between* one live copy and the configured factor after quiescence:
   repair either restored the factor or the item lost all copies
   (irrecoverable, counted as ``lost`` — the availability metric's
   territory, bounded by the paper's ``1 − p^k``).
3. **Accounting conservation** (:func:`check_accounting`) — the fault
   plane classified every message it charged exactly once:
   ``charged == delivered + dropped + duplicated``.
4. **Holder-index consistency** (:func:`check_holder_index`) — the
   replication ledger's contract, *credited ⇔ stored*: an item's record
   and its holders' entries agree, no removed node is credited, and a
   registered node is credited with exactly the items its store holds
   (a dangling credit would fool a future repair into sourcing from a
   node without the copy; a missing one hides a copy from repair).

:func:`check_all` runs whichever of the four apply and returns their
reports; the ``chaos`` gate row gates CI on ``all(ok)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sim.linkfaults import LinkFaultPlane
from .repair import RepairEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph

__all__ = [
    "InvariantReport",
    "check_reachability",
    "check_replica_counts",
    "check_accounting",
    "check_holder_index",
    "check_all",
]

#: How many example violations a report retains for diagnostics.
_MAX_SAMPLES = 8


@dataclass
class InvariantReport:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    checked: int = 0
    violations: int = 0
    #: Up to :data:`_MAX_SAMPLES` human-readable violation examples.
    samples: list[str] = field(default_factory=list)
    #: Side facts (lost items, over-replication, raw tallies) that are
    #: informative but not violations.
    info: dict[str, int] = field(default_factory=dict)

    def note(self, sample: str) -> None:
        self.violations += 1
        self.ok = False
        if len(self.samples) < _MAX_SAMPLES:
            self.samples.append(sample)

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "violations": self.violations,
            "samples": list(self.samples),
            "info": dict(self.info),
        }


def check_reachability(
    system: "Meteorograph", *, window: Optional[int] = None
) -> InvariantReport:
    """Every item with a live copy is findable from its live home.

    ``window`` bounds the walk the oracle allows past the home; the
    default matches the availability probes' ``max_walk`` allowance of
    ``replication factor × 4`` live neighbors — a copy further out than
    that is unreachable in practice even if it exists somewhere.
    """
    report = InvariantReport(name="reachability", ok=True)
    manager = system.replication
    if manager is None:
        return report
    if window is None:
        window = manager.factor * 4
    overlay = system.overlay
    network = system.network
    lost = 0
    for item_id, record in manager.records.items():
        live = manager.live_holders(record)
        if not live:
            lost += 1
            continue
        report.checked += 1
        home = overlay.live_home(record.item.publish_key)
        if home is None:
            report.note(f"item {item_id}: no live home for its key")
            continue
        if network.node(home).has_item(item_id):
            continue
        walked = 0
        found = False
        for nid in overlay.walk_order(home, "both"):
            if walked >= window:
                break
            if not network.is_alive(nid):
                continue
            walked += 1
            if network.node(nid).has_item(item_id):
                found = True
                break
        if not found:
            report.note(
                f"item {item_id}: {len(live)} live copies but none within "
                f"{window} of live home {home}"
            )
    report.info["lost"] = lost
    return report


def check_replica_counts(system: "Meteorograph") -> InvariantReport:
    """After quiescence no item sits below factor with live copies left."""
    report = InvariantReport(name="replica_counts", ok=True)
    manager = system.replication
    if manager is None:
        return report
    factor = manager.factor
    lost = 0
    over = 0
    for item_id, record in manager.records.items():
        live = manager.live_holders(record)
        n = len(live)
        if n == 0:
            lost += 1
            continue
        report.checked += 1
        if n < factor:
            report.note(f"item {item_id}: {n} live copies < factor {factor}")
        elif n > factor:
            # Recoveries can resurface copies beyond the factor; that is
            # benign redundancy, not a violation — surfaced as info.
            over += 1
    report.info["lost"] = lost
    report.info["over_replicated"] = over
    return report


def check_accounting(plane: Optional[LinkFaultPlane]) -> InvariantReport:
    """``charged == delivered + dropped + duplicated`` on the plane."""
    report = InvariantReport(name="accounting", ok=True)
    if plane is None:
        return report
    report.checked = plane.charged
    report.info.update(plane.snapshot())
    if not plane.conserved():
        report.note(
            f"charged {plane.charged} != delivered {plane.delivered} "
            f"+ dropped {plane.dropped} + duplicated {plane.duplicated}"
        )
    return report


def check_holder_index(
    system: "Meteorograph", repair: Optional[RepairEngine]
) -> InvariantReport:
    """The replication ledger's contract: its two directions agree, and
    every credited registered node holds the item."""
    report = InvariantReport(name="holder_index", ok=True)
    if repair is None:
        return report
    manager = repair.manager
    network = system.network
    for item_id, record in manager.records.items():
        for node_id in record.holders:
            report.checked += 1
            if item_id not in manager.items_of(node_id):
                report.note(
                    f"record of item {item_id} credits node {node_id} "
                    "but the node's entry does not"
                )
            elif node_id not in network or not network.node(node_id).has_item(item_id):
                report.note(
                    f"node {node_id} credited with item {item_id} it does not hold"
                )
    for node_id, held in manager.held.items():
        for item_id in held:
            record = manager.records.get(item_id)
            if record is None or node_id not in record.holders:
                report.note(
                    f"node {node_id}'s entry credits item {item_id} "
                    "but the item's record does not"
                )
    for node in network.nodes():
        held = manager.items_of(node.node_id)
        for item_id in node.item_ids():
            if item_id not in held:
                report.note(
                    f"node {node.node_id} holds item {item_id} "
                    "the ledger does not credit"
                )
    return report


def check_all(
    system: "Meteorograph",
    *,
    repair: Optional[RepairEngine] = None,
    plane: Optional[LinkFaultPlane] = None,
    window: Optional[int] = None,
) -> dict[str, InvariantReport]:
    """Run every applicable invariant; keyed by invariant name."""
    reports = [
        check_reachability(system, window=window),
        check_replica_counts(system),
        check_accounting(plane),
        check_holder_index(system, repair),
    ]
    return {r.name: r for r in reports}
