"""Machine-checked invariants for the chaos harness.

After a seeded fault schedule (loss × duplication × partition × churn,
:mod:`repro.maint.scenarios`) quiesces — faults off, repair and
anti-entropy ticks drained — the system must be *provably* healthy, not
just pass a spot-check.  This module states the health conditions as
five checkable invariants over live state:

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
4. **Holder-index consistency** (:func:`check_holder_index`) — the item
   record's *credited ⇔ stored* contract, at every replication factor,
   under one of the item's current publish keys.
5. **Pointer freshness** (:func:`check_pointers`) — under §3.5.2
   directory pointers, every row is the recorded one and names a held
   body, and every body has its row.

:func:`check_all` runs whichever of the five apply and returns their
reports; the ``chaos`` gate row gates CI on ``all(ok)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Optional

import numpy as np

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
    "check_pointers",
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
    if manager.factor < 2:
        return report
    if window is None:
        window = manager.factor * 4
    overlay = system.overlay
    network = system.network
    lost = 0
    for item_id in manager.holders:
        live = manager.live_holders(item_id)
        if not live:
            lost += 1
            continue
        report.checked += 1
        home = overlay.live_home(manager.keys[item_id][1])
        if home is None:
            report.note(f"item {item_id}: no live home for its key")
            continue
        if network.node(home).has_item(item_id):
            continue
        near = (n for n in overlay.walk_order(home, "both") if network.is_alive(n))
        if not any(network.node(n).has_item(item_id) for n in islice(near, window)):
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
    if manager.factor < 2:
        return report
    factor = manager.factor
    lost = 0
    over = 0
    for item_id in manager.holders:
        n = len(manager.live_holders(item_id))
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


def check_holder_index(system: "Meteorograph") -> InvariantReport:
    """The item record's contract, at every factor: its two directions
    agree, every credited registered node holds the item under one of
    its current publish keys, and every stored item is credited."""
    report = InvariantReport(name="holder_index", ok=True)
    manager = system.replication
    network = system.network
    for item_id, holders in manager.holders.items():
        keys = manager.keys.get(item_id, ())[1:]
        for node_id in holders:
            report.checked += 1
            if item_id not in manager.items_of(node_id):
                report.note(f"item {item_id} credits node {node_id}, not vice versa")
            elif node_id not in network or not network.node(node_id).has_item(item_id):
                report.note(f"node {node_id} credited with item {item_id} it does not hold")
            elif network.node(node_id).get_item(item_id).publish_key not in keys:
                report.note(f"node {node_id} holds item {item_id} under a superseded key")
    if sum(map(len, manager.held.values())) != report.checked:
        report.note("a node's entry credits an item whose record does not")
    for node in network.nodes():
        for item_id in set(node.item_ids()) - manager.items_of(node.node_id):
            report.note(f"node {node.node_id} holds item {item_id} uncredited")
    return report


def check_pointers(system: "Meteorograph") -> InvariantReport:
    """Under §3.5.2 directory pointers, the rows are fresh: every row on
    a live node is the one the item record names and matches the vector
    of a body some registered node holds (a dead holder's copy
    resurfaces on recovery); every body on a live node has its row,
    unless the row's holder is dead or left the ring."""
    report = InvariantReport(name="pointers", ok=True)
    if not system.config.directory_pointers:
        return report
    manager = system.replication
    network = system.network
    rows = manager.rows
    for node in network.nodes():
        if not node.alive:
            continue
        held = {} if node.pointers is None else node.pointers.items_by_id()
        for item_id, row in held.items():
            report.checked += 1
            bodies = [
                network.node(h).get_item(item_id)
                for h in manager.holders.get(item_id, ())
                if network.node(h).has_item(item_id)
            ]
            if rows.get(item_id) != node.node_id:
                report.note(f"node {node.node_id} keeps an unrecorded row of item {item_id}")
            elif not any(_same_vector(body, row) for body in bodies):
                report.note(f"row of item {item_id} on node {node.node_id} names no held body")
        for item_id in node.item_ids():
            report.checked += 1
            holder = rows.get(item_id, node.node_id)  # none recorded: look here
            if holder is not None and network.is_alive(holder):
                pointers = network.node(holder).pointers
                if pointers is None or item_id not in pointers:
                    report.note(f"body of item {item_id} on node {node.node_id} has no row")
    return report


def _same_vector(a, b) -> bool:
    return a is b or (
        np.array_equal(a.keyword_ids, b.keyword_ids)
        and np.array_equal(a.weights, b.weights)
    )


def check_all(
    system: "Meteorograph",
    *,
    repair: Optional[RepairEngine] = None,
    plane: Optional[LinkFaultPlane] = None,
    window: Optional[int] = None,
) -> dict[str, InvariantReport]:
    """Run every applicable invariant; keyed by invariant name.

    ``repair`` is accepted from callers that run an engine; no check
    needs it, the item record is the system's own."""
    reports = [
        check_reachability(system, window=window),
        check_replica_counts(system),
        check_accounting(plane),
        check_holder_index(system),
        check_pointers(system),
    ]
    return {r.name: r for r in reports}
