"""Anti-entropy reconciliation after partition heals.

A partition is a *message-plane* fault: every node stays alive and the
liveness-driven :class:`~repro.maint.repair.RepairEngine` rightly sees
nothing to repair — yet state diverges during the split.  Publishes
whose route stalls at the cut degrade to a minority-side node, repairs
sourced from one side cannot reach targets on the other, and items
published mid-split land on whichever "closest home" their side could
see.  When the fabric heals, those items are stored *somewhere* live
but no longer where routing will look for them.

The :class:`AntiEntropyEngine` closes that gap.  It subscribes to the
network's liveness feed for the ``"heal"`` change kind (emitted by
:meth:`repro.sim.network.Network.heal_partition` for every node of the
healed side) and, on its next :meth:`tick`, runs one reconciliation
pass:

* every item held by a healed-side node is marked dirty in the repair
  engine (divergence accrued on *both* sides of the cut, and the dirty
  set is how under-replication gets fixed);
* every replication record is checked against the *post-heal* truth:
  if the item's live closest home (the node §3.3 routing will actually
  land on) holds no copy, one is re-placed there from any live holder
  — the reachability invariant the chaos harness asserts
  (:mod:`repro.maint.invariants`).

A re-placement can itself fail while faults are still active (the
push to the home is one more message the lossy plane may eat).  Those
items are *deferred*, not dropped: the pass re-runs on subsequent
ticks until every home placement lands — anti-entropy converges once
the fabric lets it, which is the point of anti-entropy.  (They also
enter the repair dirty set, so under-replication is covered either
way.)

Ticks with nothing pending are a set-emptiness check — the engine
rides the same periodic cadence as repair without adding scan cost to
heal-free runs.

Metrics: ``maint.antientropy.ticks`` / ``.reconciled`` / ``.replaced``
/ ``.dirtied`` counters and a ``reconcile`` trace event.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from .repair import RepairEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph
    from ..sim.engine import PeriodicTask

__all__ = ["AntiEntropyEngine"]


class AntiEntropyEngine:
    """Heal-triggered holder/home reconciliation.

    Build one over a replicated system with an attached repair engine::

        repair = RepairEngine(system).attach()
        ae = AntiEntropyEngine(system, repair).attach()
        ae.schedule(interval)              # periodic ticks, or
        ae.tick()                          # one pass now
    """

    def __init__(self, system: "Meteorograph", repair: RepairEngine) -> None:
        if system.replication.factor < 2:
            raise ValueError("AntiEntropyEngine needs replication_factor > 1")
        self.system = system
        self.manager = system.replication
        self.repair = repair
        #: Healed-side node ids awaiting reconciliation.
        self.pending_heals: set[int] = set()
        #: Item ids whose home re-placement failed last pass (push lost
        #: or target full); retried on every tick until it lands.
        self._deferred: set[int] = set()
        self._attached = False
        self.ticks = 0
        self.reconcile_passes = 0
        self.total_replaced = 0

    # -- wiring ------------------------------------------------------------

    def attach(self) -> "AntiEntropyEngine":
        """Subscribe to the network's liveness feed, weakly (see
        ``RepairEngine.attach``): the caller keeps the engine alive."""
        if self._attached:
            raise RuntimeError("AntiEntropyEngine already attached")
        self._attached = True
        record = weakref.WeakMethod(self._on_liveness)
        self.system.network.subscribe_liveness(
            lambda node_id, change: (on := record()) and on(node_id, change)
        )
        return self

    def schedule(self, interval: float) -> "PeriodicTask":
        """Run :meth:`tick` periodically on the attached simulator."""
        sim = self.system.network.simulator
        if sim is None:
            raise RuntimeError("network has no simulator for periodic anti-entropy")
        return sim.schedule_every(interval, lambda: self.tick())

    def _on_liveness(self, node_id: int, change: str) -> None:
        if change == "heal":
            self.pending_heals.add(node_id)

    # -- reconciliation ----------------------------------------------------

    def tick(self) -> int:
        """Reconcile if work is pending; returns copies re-placed."""
        self.ticks += 1
        if not self.pending_heals and not self._deferred:
            return 0
        healed = self.pending_heals
        self.pending_heals = set()
        self._deferred = set()
        obs = self.system.network.obs
        with obs.metrics.timer("maint.antientropy.pass"):
            dirtied, replaced, reconciled = self._reconcile(healed)
        self.reconcile_passes += 1
        self.total_replaced += replaced
        if obs.enabled:
            obs.metrics.counter("maint.antientropy.ticks")
            obs.metrics.counter("maint.antientropy.dirtied", dirtied)
            obs.metrics.counter("maint.antientropy.reconciled", reconciled)
            obs.metrics.counter("maint.antientropy.replaced", replaced)
            if obs.tracer.enabled:
                obs.tracer.event(
                    "reconcile",
                    healed=len(healed),
                    dirtied=dirtied,
                    items=reconciled,
                    replaced=replaced,
                )
        return replaced

    def _reconcile(self, healed: set[int]) -> tuple[int, int, int]:
        """One full pass; returns ``(dirtied, replaced, reconciled)``."""
        overlay = self.system.overlay
        manager = self.manager
        # 1. Everything the healed side holds goes through the ordinary
        #    repair discipline — under-replication that accrued behind
        #    the cut is repair's job, not ours.
        dirtied = 0
        for nid in healed:
            held = manager.items_of(nid)
            self.repair.dirty.update(held)
            dirtied += len(held)
        # 2. Home reconciliation: re-place items whose live closest home
        #    changed (or was unreachable) during the split, so §3.3
        #    routing finds a copy where it lands.  A failed placement
        #    (target full, push lost) re-enters the dirty set for the
        #    repair ladder to retry.
        replaced = 0
        reconciled = 0
        network = self.system.network
        for item_id in manager.holders:
            home = overlay.live_home(manager.keys[item_id][1])
            if home is None:
                continue
            live = manager.live_holders(item_id)
            if not live or home in live:
                continue
            reconciled += 1
            # Deterministic source: the live holder nearest the home.
            src = min(live, key=lambda h: (abs(h - home), h))
            if manager.place_copy(src, home, network.node(src).get_item(item_id)):
                replaced += 1
            else:
                self.repair.dirty.add(item_id)
                self._deferred.add(item_id)
        return dirtied, replaced, reconciled

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self.pending_heals) + len(self._deferred)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AntiEntropyEngine(pending={len(self.pending_heals)}, "
            f"passes={self.reconcile_passes}, replaced={self.total_replaced})"
        )
