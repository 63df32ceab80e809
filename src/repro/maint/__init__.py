"""Fault-tolerance subsystem: repair, retry, anti-entropy, scenarios.

Cooperating parts (DESIGN.md, "Fault tolerance" / "Message plane
faults"):

* :class:`RepairEngine` — incremental dirty-set replica repair fed by
  the network's liveness notifications.  The full-scan
  ``ReplicationManager.repair`` is the same per-record step over every
  record — the reference the engine's placements are tested against.
* :class:`RetryPolicy` / :func:`route_with_retry` — bounded
  exponential backoff (deterministic jitter from the run seed) around
  publish/retrieve home delivery, degrading to the nearest live
  key-neighbor when the home stays unreachable.
* :class:`AntiEntropyEngine` — partition-heal reconciliation: re-places
  items whose live closest home changed while the fabric was split
  (:mod:`repro.sim.linkfaults`), triggered by the ``heal`` liveness
  change kind.
* :mod:`repro.maint.invariants` — the chaos harness's machine-checked
  health conditions (reachability, replica counts, message-accounting
  conservation, holder-index consistency).
* :mod:`repro.maint.scenarios` — declarative fault scenarios (batch
  kill, Poisson churn, flapping nodes, correlated region failure,
  partitions, lossy links) driving :mod:`repro.sim.engine`, exposed as
  the ``faults`` / ``chaos`` CLI verbs.
"""

from .antientropy import AntiEntropyEngine
from .invariants import (
    InvariantReport,
    check_accounting,
    check_all,
    check_holder_index,
    check_reachability,
    check_replica_counts,
)
from .repair import RepairEngine
from .retry import RetryPolicy, route_with_retry
from .scenarios import (
    BUILTIN_SCENARIOS,
    BatchKill,
    FlappingNodes,
    LossyLinks,
    Partition,
    PoissonChurn,
    RegionFailure,
    Scenario,
    ScenarioStats,
    install_scenarios,
    make_scenario,
    run_scenarios,
)

__all__ = [
    "RepairEngine",
    "AntiEntropyEngine",
    "RetryPolicy",
    "route_with_retry",
    "InvariantReport",
    "check_reachability",
    "check_replica_counts",
    "check_accounting",
    "check_holder_index",
    "check_all",
    "Scenario",
    "ScenarioStats",
    "BatchKill",
    "PoissonChurn",
    "FlappingNodes",
    "RegionFailure",
    "Partition",
    "LossyLinks",
    "install_scenarios",
    "run_scenarios",
    "make_scenario",
    "BUILTIN_SCENARIOS",
]
