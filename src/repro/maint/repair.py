"""Incremental replica repair over a dirty set of affected items.

The full-scan :meth:`repro.core.replication.ReplicationManager.repair`
examines every record per maintenance tick — O(published items) even
when a single node failed — which is what capped churn experiments near
10⁴ items (ROADMAP: ~4 ms/event at demo scale).  The
:class:`RepairEngine` turns that around: it keeps a **dirty set** of
item ids whose copy count may have changed, fed by

* the network's liveness notifications (fail / recover / heal) — a
  holder's transition marks exactly the items the item record credits
  to it;
* the manager's ``on_under_replicated`` hook — publish-time shortfalls
  and the items of a removed node, already uncredited by then.

A :meth:`tick` runs the manager's one repair loop
(``ReplicationManager.repair_each``) over the dirty items in record
rank order — the full scan's order — so on any run whose liveness
transitions all flow through the :class:`~repro.sim.network.Network`
(batch kills, Poisson churn, flapping, region failures: everything in
:mod:`repro.maint.scenarios`), the engine's placements are identical to
full-scan placements.  ``tests/maint/test_repair_engine.py`` pins the
equivalence property.  Items the tick cannot restore to factor (no live
home yet, targets full) stay dirty and are retried next tick, again
matching the full scan; items with zero live copies leave the set — a
holder's later recovery re-dirties them via the liveness feed.

Metrics (when the system is observable): ``maint.repair_tick`` timer,
``maint.dirty_marked`` / ``maint.items_repaired`` /
``maint.replicas_placed`` counters, ``maint.dirty_size`` distribution.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Collection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph
    from ..sim.engine import PeriodicTask

__all__ = ["RepairEngine"]


class RepairEngine:
    """Dirty-set replica repair driven by liveness notifications.

    Build one over a replicated system and :meth:`attach` it::

        engine = RepairEngine(system).attach()
        engine.schedule(interval)          # periodic ticks, or
        engine.tick()                      # one repair pass now

    The holders live in the manager's ledger, so attaching after a
    corpus publish is fine.
    """

    def __init__(self, system: "Meteorograph") -> None:
        if system.replication.factor < 2:
            raise ValueError("RepairEngine needs replication_factor > 1")
        self.system = system
        self.manager = system.replication
        #: item ids whose live copy count may have changed.
        self.dirty: set[int] = set()
        self._attached = False
        self.ticks = 0
        self.total_placed = 0

    # -- wiring ------------------------------------------------------------

    def attach(self) -> "RepairEngine":
        """Subscribe to the network's liveness feed and the manager.

        Both hold the engine weakly, so the system keeps no cycle through
        it and is freed when its last reference goes; the caller (or the
        simulator, once :meth:`schedule` ran) keeps the engine alive."""
        if self._attached:
            raise RuntimeError("RepairEngine already attached")
        self._attached = True
        mark = weakref.WeakMethod(self._mark_dirty)
        self.manager.on_under_replicated = lambda ids: (on := mark()) and on(ids)
        record = weakref.WeakMethod(self._on_liveness)
        self.system.network.subscribe_liveness(
            lambda node_id, change: (on := record()) and on(node_id, change)
        )
        return self

    def schedule(self, interval: float) -> "PeriodicTask":
        """Run :meth:`tick` periodically on the attached simulator."""
        sim = self.system.network.simulator
        if sim is None:
            raise RuntimeError("network has no simulator for periodic repair")
        return sim.schedule_every(interval, lambda: self.tick())

    # -- notification sinks ------------------------------------------------

    def _mark_dirty(self, item_ids: Collection[int]) -> None:
        self.dirty.update(item_ids)
        obs = self.system.network.obs
        if obs.enabled:
            obs.metrics.counter("maint.dirty_marked", len(item_ids))

    def _on_liveness(self, node_id: int, change: str) -> None:
        # "partition" changes reachability, not liveness or disk state:
        # copies are all still live, so nothing is dirty yet.  The
        # divergence accrues *during* the split and is reconciled on the
        # matching "heal" (here, plus the anti-entropy engine).
        # "remove" reaches the dirty set through the manager's hook.
        if change in ("fail", "recover", "heal"):
            held = self.manager.items_of(node_id)
            if held:
                self._mark_dirty(held)

    # -- repair ------------------------------------------------------------

    def tick(self) -> int:
        """Repair every dirty item; returns replicas placed.

        Items still short of the factor afterwards (but with at least
        one live copy) remain dirty for the next tick.  Cost is
        O(dirty items), not O(published items).
        """
        obs = self.system.network.obs
        with obs.metrics.timer("maint.repair_tick"):
            placed = self._tick()
        self.ticks += 1
        self.total_placed += placed
        return placed

    def _tick(self) -> int:
        obs = self.system.network.obs
        if obs.enabled:
            obs.metrics.observe("maint.dirty_size", len(self.dirty))
        if not self.dirty:
            return 0
        rank = self.manager.rank
        pending = [i for i in self.dirty if i in rank]
        pending.sort(key=rank.__getitem__)
        self.dirty.clear()
        placed, repaired, short = self.manager.repair_each(pending)
        self.dirty.update(short)
        if obs.enabled and placed:
            obs.metrics.counter("maint.replicas_placed", placed)
            obs.metrics.counter("maint.items_repaired", repaired)
            if obs.tracer.enabled:
                obs.tracer.event(
                    "repair", items=repaired, placed=placed, pending=len(self.dirty)
                )
        return placed

    # -- introspection -----------------------------------------------------

    @property
    def dirty_size(self) -> int:
        return len(self.dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RepairEngine(dirty={len(self.dirty)}, ticks={self.ticks}, "
            f"placed={self.total_placed})"
        )
