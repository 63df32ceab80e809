"""Experiment X-CHAOS: invariants and availability under message-plane faults.

Each row runs one seeded fault mix — link loss × duplication × delay
jitter × a partition split/heal × batch churn — against a replicated
system with retry delivery, incremental repair, and anti-entropy
healing attached, then quiesces (faults off, maintenance drained) and
asserts the four machine-checked invariants of
:mod:`repro.maint.invariants`:

* **reachability** — every surviving item findable from its live home;
* **replicas** — no item stuck between one live copy and the factor;
* **accounting** — the fault plane conserved its message classification
  (``charged = delivered + dropped + duplicated``);
* **holder_index** — the replication ledger credits exactly the
  copies the stores hold.

To make the partition actually *diverge* state (the anti-entropy
engine's reason to exist), 30% of the corpus is published mid-split:
publishes from the minority side stall at the cut and place degraded,
so their records point at homes routing will no longer reach once the
fabric heals — exactly the drift the heal-triggered reconciliation
pass must repair.

Availability is the §4.3 probe (exact-item ``find`` from random live
origins with the standard ``factor × 4`` walk allowance) sampled after
quiescence; ``lost`` counts items whose copies were all churned away
(bounded by the paper's ``1 − p^k``, not an invariant violation).

The ``chaos`` gate row (``meteorograph check chaos``) runs one cell
of this experiment as a CI gate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import PlacementScheme
from ..maint import (
    AntiEntropyEngine,
    BatchKill,
    LossyLinks,
    Partition,
    RepairEngine,
    RetryPolicy,
    check_all,
    install_scenarios,
)
from ..sim.engine import Simulator
from ..sim.linkfaults import LinkFaultPlane
from ..workload import WorldCupTrace
from .common import RowSet, build_system, default_trace, timer

__all__ = ["run_chaos", "chaos_cell"]

#: (label, drop, dup, jitter, split?, churn) — the experiment's fault grid.
FAULT_MIXES = (
    ("baseline", 0.00, 0.00, 0.0, False, 0.0),
    ("loss", 0.05, 0.00, 0.0, False, 0.0),
    ("loss+dup", 0.05, 0.05, 0.5, False, 0.0),
    ("partition", 0.00, 0.00, 0.0, True, 0.0),
    ("combo+churn", 0.05, 0.05, 0.5, True, 0.3),
)

#: Bounded drain: maintenance tick pairs allowed during quiescence.
_MAX_DRAIN = 12


def chaos_cell(
    trace: WorldCupTrace,
    *,
    n_nodes: int = 300,
    replicas: int = 3,
    drop: float = 0.05,
    dup: float = 0.0,
    jitter: float = 0.0,
    split: bool = True,
    split_fraction: float = 0.4,
    churn: float = 0.0,
    horizon: float = 30.0,
    quiesce: float = 20.0,
    repair_interval: float = 2.0,
    antientropy_interval: float = 2.0,
    queries: int = 300,
    seed: int = 47,
) -> dict:
    """One seeded fault schedule end to end; returns the cell verdict.

    Timeline (fractions of ``horizon``): loss window covers the whole
    horizon; the partition splits at 0.2 and heals at 0.7; churn (one
    batch kill) lands at 0.5; the mid-split publish tranche goes out at
    0.45.  After ``horizon`` the faults are off and the system runs
    ``quiesce`` more simulated seconds of maintenance, then drains any
    remaining dirty/pending work tick by tick.
    """
    rng = np.random.default_rng(seed)
    system = build_system(
        trace,
        n_nodes,
        PlacementScheme.UNUSED_HASH_HOT,
        rng=rng,
        replication_factor=replicas,
        simulator=Simulator(),
        retry_policy=RetryPolicy(
            seed=seed, max_attempts=4, base_delay=0.5, max_delay=4.0,
            max_total_delay=30.0,
        ),
    )
    network = system.network
    sim = network.simulator

    # Pre-fault corpus: 70% published on a healthy fabric.
    n_items = trace.corpus.n_items
    pre_n = int(round(0.7 * n_items))
    pre_ids = np.arange(pre_n, dtype=np.int64)
    mid_ids = np.arange(pre_n, n_items, dtype=np.int64)
    system.publish_corpus(trace.corpus.subsample(pre_ids), rng, item_ids=pre_ids)

    plane = network.attach_link_faults(LinkFaultPlane(seed=seed))
    repair = RepairEngine(system).attach()
    repair.schedule(repair_interval)
    antientropy = AntiEntropyEngine(system, repair).attach()
    antientropy.schedule(antientropy_interval)

    scenarios = []
    if drop > 0.0 or dup > 0.0 or jitter > 0.0:
        scenarios.append(
            LossyLinks(drop=drop, dup=dup, jitter=jitter, start=0.0, stop=horizon)
        )
    if split:
        scenarios.append(
            Partition(
                fraction=split_fraction,
                at=0.2 * horizon,
                heal_at=0.7 * horizon,
            )
        )
    if churn > 0.0:
        scenarios.append(BatchKill(fraction=churn, at=0.5 * horizon))
    stats = install_scenarios(system, scenarios, rng)

    # Mid-fault tranche: published while the cut (if any) is up, from
    # random live origins — the divergence anti-entropy reconciles.
    mid_corpus = trace.corpus.subsample(mid_ids)

    def publish_tranche() -> None:
        system.publish_corpus(mid_corpus, rng, item_ids=mid_ids)

    sim.schedule_at(0.45 * horizon, publish_tranche)
    sim.run(until=horizon)

    # Quiescence: faults off, cut healed, maintenance drains.
    plane.set_loss(0.0, 0.0, 0.0)
    network.heal_partition()
    sim.run(until=horizon + quiesce)
    for _ in range(_MAX_DRAIN):
        antientropy.tick()
        repair.tick()
        if not repair.dirty and not antientropy.pending:
            break

    reports = check_all(system, repair=repair, plane=plane)

    ok = 0
    live_origins = [nid for nid in network.alive_ids()]
    for _ in range(queries):
        item = int(rng.integers(0, n_items))
        origin = live_origins[int(rng.integers(0, len(live_origins)))]
        if system.find(origin, item, max_walk=replicas * 4).found:
            ok += 1
    availability = ok / queries if queries else 1.0

    return {
        "availability": availability,
        "reports": reports,
        "all_ok": all(r.ok for r in reports.values()),
        "lost": reports["replica_counts"].info.get("lost", 0),
        "replaced": antientropy.total_replaced,
        "plane": plane.snapshot(),
        "stats": stats.as_dict(),
        "published": n_items,
    }


def run_chaos(
    trace: Optional[WorldCupTrace] = None,
    *,
    n_nodes: int = 300,
    replicas: int = 3,
    horizon: float = 30.0,
    quiesce: float = 20.0,
    queries: int = 300,
    seed: int = 47,
) -> RowSet:
    """X-CHAOS rows: one per fault mix in :data:`FAULT_MIXES`."""
    tr = trace if trace is not None else default_trace()
    rs = RowSet(
        "X-CHAOS — invariants and availability per fault mix",
        (
            "mix", "drop", "dup", "split", "churn", "availability", "lost",
            "reachability", "replicas", "accounting", "holder_index",
            "healed_replaced",
        ),
    )
    with timer(rs):
        for i, (label, drop, dup, jitter, split, churn) in enumerate(FAULT_MIXES):
            cell = chaos_cell(
                tr,
                n_nodes=n_nodes,
                replicas=replicas,
                drop=drop,
                dup=dup,
                jitter=jitter,
                split=split,
                churn=churn,
                horizon=horizon,
                quiesce=quiesce,
                queries=queries,
                seed=seed + i,
            )
            r = cell["reports"]
            rs.add(
                label,
                drop,
                dup,
                int(split),
                churn,
                round(cell["availability"], 3),
                cell["lost"],
                int(r["reachability"].ok),
                int(r["replica_counts"].ok),
                int(r["accounting"].ok),
                int(r["holder_index"].ok),
                cell["replaced"],
            )
        rs.notes["N"] = n_nodes
        rs.notes["items"] = tr.corpus.n_items
        rs.notes["replicas"] = replicas
        rs.notes["queries_per_cell"] = queries
        rs.notes["horizon"] = horizon
    return rs
