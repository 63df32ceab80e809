"""Experiment X-REPAIR: incremental vs full-scan repair cost at scale.

ROADMAP flagged full-scan :meth:`ReplicationManager.repair` as the
churn-scale bottleneck: every maintenance tick walks *all* published
records (~4 ms/event at demo scale), regardless of how few nodes
actually failed.  The :class:`repro.maint.RepairEngine` repairs only
the dirty set fed by liveness notifications.

This experiment builds two identical replicated systems, applies the
same seeded failure waves to both, and times each path's *maintenance
schedule* between waves: repair runs periodically (``ticks_per_wave``
ticks per failure wave, matching how the churn experiments schedule
it), so the full scan pays its O(items) walk on every tick — including
the quiet ones after the wave's damage is repaired — while the
incremental engine pays O(dirty) once and near-zero for the rest.
Timings come from the obs registry's timers (``maint.full_scan`` /
``maint.repair_tick``), so the committed rowset in ``results/`` is the
acceptance artifact for the ≥5× claim.  It also verifies, wave by
wave, that both paths leave **identical holder sets** (the
placement-equivalence property the unit tests pin at small scale).

The cyclic GC is paused around the timed regions (the ``timeit``
convention): two 10⁴-item systems keep
enough containers alive that a collection landing inside one path but
not the other would swamp the signal.

Rows: one per failure wave, with per-wave wall-clock for both paths.
"""

from __future__ import annotations

import gc

import numpy as np

from ..core import Meteorograph, MeteorographConfig, PlacementScheme
from ..maint import RepairEngine
from ..sim.engine import Simulator
from ..sim.failures import fail_fraction
from ..workload import WorldCupTrace
from .common import RowSet, default_trace, sample_of, timer

__all__ = ["run_repair_scale"]


def _build(tr: WorldCupTrace, n_nodes: int, replicas: int, seed: int) -> Meteorograph:
    rng = np.random.default_rng(seed)
    sample = sample_of(tr.corpus, rng)
    system = Meteorograph.build(
        n_nodes,
        tr.corpus.dim,
        rng=rng,
        sample=sample,
        config=MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH_HOT,
            replication_factor=replicas,
            observability=True,
        ),
        simulator=Simulator(),
    )
    system.publish_corpus(tr.corpus, np.random.default_rng(seed + 1))
    return system


def _holders(system: Meteorograph) -> dict[int, tuple[int, ...]]:
    return {
        item_id: tuple(sorted(holders))
        for item_id, holders in system.replication.holders.items()
    }


def run_repair_scale(
    trace: WorldCupTrace | None = None,
    *,
    n_nodes: int = 300,
    n_items: int = 10_000,
    replicas: int = 4,
    fail_per_wave: float = 0.0034,
    waves: int = 6,
    ticks_per_wave: int = 3,
    seed: int = 77,
) -> RowSet:
    """Rows: (wave, failed, dirty, ticks, full ms, incremental ms, speedup).

    ``fail_per_wave`` defaults to one node per wave at the default
    ``n_nodes`` — the realistic churn shape (departures arrive one at a
    time), and exactly the case the dirty set is built for.  Each wave
    runs ``ticks_per_wave`` maintenance passes, as a periodic repair
    schedule would between failures.
    """
    tr = (
        trace
        if trace is not None
        else default_trace(n_items=n_items, n_keywords=max(300, n_items // 5))
    )
    rs = RowSet(
        "Repair cost — full scan vs incremental dirty-set ticks",
        ("wave", "failed", "dirty", "ticks", "full ms", "incremental ms", "speedup"),
    )
    with timer(rs):
        full = _build(tr, n_nodes, replicas, seed)
        incr = _build(tr, n_nodes, replicas, seed)
        engine = RepairEngine(incr).attach()
        full_timer = None
        incr_timer = None
        full_prev = incr_prev = 0.0
        identical = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for wave in range(1, waves + 1):
                # Same victims on both systems: a per-wave seeded generator.
                wave_rng = np.random.default_rng(seed + 1000 + wave)
                failed = fail_fraction(full.network, fail_per_wave, wave_rng)
                wave_rng = np.random.default_rng(seed + 1000 + wave)
                fail_fraction(incr.network, fail_per_wave, wave_rng)
                dirty = engine.dirty_size
                gc.collect()
                with full.obs.metrics.timer("maint.full_scan"):
                    for _ in range(ticks_per_wave):
                        full.replication.repair()
                gc.collect()
                for _ in range(ticks_per_wave):
                    engine.tick()
                full_timer = full.obs.metrics.timers["maint.full_scan"]
                incr_timer = incr.obs.metrics.timers["maint.repair_tick"]
                full_ms = (full_timer.wall.total - full_prev) * 1e3
                incr_ms = (incr_timer.wall.total - incr_prev) * 1e3
                full_prev = full_timer.wall.total
                incr_prev = incr_timer.wall.total
                identical = identical and _holders(full) == _holders(incr)
                rs.add(
                    wave,
                    len(failed),
                    dirty,
                    ticks_per_wave,
                    round(full_ms, 3),
                    round(incr_ms, 3),
                    round(full_ms / incr_ms, 1) if incr_ms > 0 else float("inf"),
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        rs.notes["items"] = tr.corpus.n_items
        rs.notes["N"] = n_nodes
        rs.notes["replicas"] = replicas
        rs.notes["ticks_per_wave"] = ticks_per_wave
        rs.notes["placement_identical"] = identical
        if full_timer is not None and incr_timer.wall.total > 0:
            rs.notes["overall_speedup"] = round(
                full_timer.wall.total / incr_timer.wall.total, 1
            )
    return rs
