"""Fixtures for the fault-tolerance subsystem tests.

The equivalence tests need *twin* systems — identically seeded builds
that are then subjected to identical failures — so the builder is a
plain function (exposed as a fixture) rather than a shared instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Meteorograph, MeteorographConfig, PlacementScheme
from repro.sim.engine import Simulator


def build_replicated_system(
    trace,
    *,
    n_nodes: int = 120,
    factor: int = 3,
    seed: int = 11,
    **config_kwargs,
) -> Meteorograph:
    """A published, replicated, simulator-backed system — deterministic
    per seed, so two calls with the same arguments are exact twins."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(
        trace.corpus.n_items,
        size=max(40, trace.corpus.n_items // 10),
        replace=False,
    )
    sample = trace.corpus.subsample(np.sort(ids))
    cfg = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH_HOT,
        replication_factor=factor,
        **config_kwargs,
    )
    system = Meteorograph.build(
        n_nodes,
        trace.corpus.dim,
        rng=rng,
        sample=sample,
        config=cfg,
        simulator=Simulator(),
    )
    system.publish_corpus(trace.corpus, np.random.default_rng(seed + 1))
    return system


def _holders_snapshot(system) -> dict[int, tuple[int, ...]]:
    return {
        item_id: tuple(sorted(holders))
        for item_id, holders in system.replication.holders.items()
    }


@pytest.fixture(scope="session")
def build_replicated():
    """The builder function (fixture because tests/ is not a package)."""
    return build_replicated_system


@pytest.fixture(scope="session")
def holders_snapshot():
    """item id -> sorted holder ids, for placement comparisons."""
    return _holders_snapshot
