"""Experiment X-CHURN (beyond-paper): availability under *continuous* churn.

§4.3 fails nodes in one batch; real overlays churn continuously.  This
experiment drives a :class:`repro.maint.PoissonChurn` scenario through
the event engine while §3.6 replica repair runs periodically, sampling
query availability over time.  The claim under test: with repair
running at a period shorter than the mean time to lose all replicas,
availability stays near 1 even as cumulative departures pass 50% of the
original population.

Repair is the incremental :class:`repro.maint.RepairEngine`
(dirty-set ticks fed by the network's liveness notifications).  It
places copies identically to the full-scan ``ReplicationManager.repair``
(see ``tests/maint/test_repair_engine.py``), so the availability rows
do not depend on it — only the tick cost does, which is what
``run_repair_scale`` measures.
"""

from __future__ import annotations

import numpy as np

from ..core import PlacementScheme
from ..maint import PoissonChurn, RepairEngine, install_scenarios
from ..sim.engine import Simulator
from ..sim.metrics import MetricSink
from ..workload import WorldCupTrace
from .common import RowSet, default_trace, sample_of, timer

__all__ = ["run_churn"]


def run_churn(
    trace: WorldCupTrace | None = None,
    *,
    n_nodes: int = 400,
    replicas: int = 4,
    depart_rate: float = 2.0,
    repair_interval: float = 10.0,
    horizon: float = 100.0,
    sample_every: float = 20.0,
    queries_per_sample: int = 100,
    seed: int = 2024,
    with_repair: bool = True,
) -> RowSet:
    """Rows: (time, departed %, availability) sampled along the run."""
    from ..core import Meteorograph, MeteorographConfig

    tr = trace if trace is not None else default_trace()
    rs = RowSet(
        f"Continuous churn — replicas={replicas}, repair="
        + (f"every {repair_interval:g}" if with_repair else "off"),
        ("time", "departed %", "availability"),
    )
    with timer(rs):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        sample = sample_of(tr.corpus, rng)
        system = Meteorograph.build(
            n_nodes,
            tr.corpus.dim,
            rng=rng,
            sample=sample,
            config=MeteorographConfig(
                scheme=PlacementScheme.UNUSED_HASH_HOT,
                replication_factor=replicas,
            ),
            simulator=sim,
            sink=MetricSink(),
        )
        system.publish_corpus(tr.corpus, rng)

        # Departures stabilize the overlay (neighbors notice and repair
        # their routing view) — the scenario's default behaviour.
        stats = install_scenarios(
            system, [PoissonChurn(depart_rate=depart_rate)], rng
        )
        engine = None
        if with_repair and system.replication.factor > 1:
            engine = RepairEngine(system).attach()
            engine.schedule(repair_interval)

        def sample_availability() -> None:
            alive = system.network.alive_count()
            if alive == 0:
                rs.add(round(sim.now, 1), 100, 0.0)
                return
            ok = 0
            for _ in range(queries_per_sample):
                item = int(rng.integers(0, tr.corpus.n_items))
                origin = system.random_origin(rng)
                if system.find(origin, item, max_walk=replicas * 4).found:
                    ok += 1
            departed = 1.0 - alive / n_nodes
            rs.add(round(sim.now, 1), int(departed * 100), round(ok / queries_per_sample, 3))

        t = sample_every
        while t <= horizon:
            sim.schedule_at(t, sample_availability)
            t += sample_every
        sim.run(until=horizon)
        rs.notes["replicas"] = replicas
        rs.notes["repair"] = with_repair
        rs.notes["departures"] = stats.failed
        if with_repair:
            rs.notes["engine"] = "incremental"
        if engine is not None:
            rs.notes["repair_ticks"] = engine.ticks
            rs.notes["replicas_placed"] = engine.total_placed
    return rs
