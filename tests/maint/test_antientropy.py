"""Anti-entropy healing: partition divergence is reconciled on heal.

The scenario pinned here is the one the engine exists for: items
published *during* a partition land on whichever "closest home" their
side could see; after the heal those copies are live but not where
§3.3 routing looks.  One reconcile tick must restore the reachability
invariant — and placements that fail while faults are still active
must be deferred and retried, not dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Meteorograph, MeteorographConfig, PlacementScheme
from repro.maint import (
    AntiEntropyEngine,
    RepairEngine,
    check_all,
    check_reachability,
)
from repro.sim.engine import Simulator
from repro.sim.linkfaults import LinkFaultPlane


def build_split_published_system(trace, *, n_nodes=120, factor=3, seed=11):
    """A replicated system with 60% of the corpus published healthy and
    40% published while a 40% partition holds — diverged on purpose.

    Returns ``(system, plane, repair, antientropy)`` with the fabric
    still split; the caller heals.
    """
    rng = np.random.default_rng(seed)
    ids = rng.choice(trace.corpus.n_items, size=max(40, trace.corpus.n_items // 10),
                     replace=False)
    sample = trace.corpus.subsample(np.sort(ids))
    cfg = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH_HOT, replication_factor=factor
    )
    system = Meteorograph.build(
        n_nodes, trace.corpus.dim, rng=rng, sample=sample, config=cfg,
        simulator=Simulator(),
    )
    n_items = trace.corpus.n_items
    pre = np.arange(int(0.6 * n_items), dtype=np.int64)
    mid = np.arange(int(0.6 * n_items), n_items, dtype=np.int64)
    system.publish_corpus(trace.corpus.subsample(pre), rng, item_ids=pre)

    plane = system.network.attach_link_faults(LinkFaultPlane(seed=seed))
    repair = RepairEngine(system).attach()
    antientropy = AntiEntropyEngine(system, repair).attach()

    side = sorted(system.network.alive_ids())[: int(0.4 * n_nodes)]
    system.network.partition_nodes(side)
    system.publish_corpus(trace.corpus.subsample(mid), rng, item_ids=mid)
    return system, plane, repair, antientropy


class TestWiring:
    def test_requires_replication(self, tiny_trace, build_system_fn):
        system = build_system_fn(tiny_trace)  # replication off
        with pytest.raises(ValueError):
            AntiEntropyEngine(system, repair=None)

    def test_double_attach_rejected(self, build_replicated, tiny_trace):
        system = build_replicated(trace=tiny_trace)
        repair = RepairEngine(system).attach()
        ae = AntiEntropyEngine(system, repair).attach()
        with pytest.raises(RuntimeError):
            ae.attach()

    def test_tick_without_pending_is_free(self, build_replicated, tiny_trace):
        system = build_replicated(trace=tiny_trace)
        repair = RepairEngine(system).attach()
        ae = AntiEntropyEngine(system, repair).attach()
        assert ae.tick() == 0
        assert ae.ticks == 1
        assert ae.reconcile_passes == 0


class TestHealReconciliation:
    def test_heal_queues_the_healed_side(self, tiny_trace):
        system, _, _, ae = build_split_published_system(tiny_trace)
        assert ae.pending == 0  # split alone queues nothing
        healed = system.network.heal_partition()
        assert healed > 0
        assert ae.pending == healed

    def test_one_tick_restores_reachability(self, tiny_trace):
        system, plane, repair, ae = build_split_published_system(tiny_trace)
        assert not check_reachability(system).ok  # diverged while split
        system.network.heal_partition()
        for _ in range(6):
            ae.tick()
            repair.tick()
            if not repair.dirty and not ae.pending:
                break
        assert ae.reconcile_passes >= 1
        assert ae.total_replaced > 0
        reports = check_all(system, repair=repair, plane=plane)
        assert all(r.ok for r in reports.values()), {
            k: v.samples for k, v in reports.items() if not v.ok
        }

    def test_failed_placements_are_deferred_and_retried(self, tiny_trace):
        system, plane, repair, ae = build_split_published_system(tiny_trace)
        system.network.heal_partition()
        plane.set_loss(drop_prob=1.0)  # every re-placement push is eaten
        assert ae.tick() == 0
        assert ae.pending > 0  # deferred, not dropped
        plane.set_loss()  # fabric healthy again
        assert ae.tick() > 0
        for _ in range(6):
            ae.tick()
            repair.tick()
            if not repair.dirty and not ae.pending:
                break
        assert check_reachability(system).ok

    def test_repair_ignores_partition_liveness_kind(self, tiny_trace):
        system, _, repair, _ = build_split_published_system(tiny_trace)
        # All nodes are alive during the split: the split itself must
        # not have dirtied anything in the liveness-driven engine.
        assert all(
            system.network.is_alive(nid) for nid in system.network.node_ids()
        )


class TestEnginesHoldNoCycle:
    """Attached engines hold the system weakly: a dropped system is freed
    by reference counting alone, with no cyclic collection."""

    @pytest.mark.parametrize("antientropy", [False, True])
    def test_dropped_system_is_freed_without_a_collection(self, tiny_trace, antientropy):
        import gc
        import weakref

        system = Meteorograph.build(
            20,
            tiny_trace.corpus.dim,
            rng=np.random.default_rng(3),
            sample=tiny_trace.corpus.subsample(np.arange(20)),
            config=MeteorographConfig(replication_factor=3),
        )
        system.publish_corpus(tiny_trace.corpus, np.random.default_rng(4))
        network = weakref.ref(system.network)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engines = [RepairEngine(system).attach()]
            if antientropy:
                engines.append(AntiEntropyEngine(system, engines[0]).attach())
            del system, engines
            assert network() is None
        finally:
            if was_enabled:
                gc.enable()
