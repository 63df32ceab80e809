"""Shared fixtures: a small deterministic trace and pre-built systems.

Module-scoped where construction is expensive; tests must not mutate
shared systems (tests that publish/fail nodes build their own).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core import Meteorograph, MeteorographConfig, PlacementScheme
from repro.workload import WorldCupParams, generate_trace

#: ``HYPOTHESIS_PROFILE=ci`` runs ten times the default example budget
#: (the long oracle runs in CI); tests that pin ``max_examples`` keep it.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_trace():
    """2,000 items × 600 keywords — seconds to generate, stable seed."""
    return generate_trace(
        WorldCupParams(n_items=2000, n_keywords=600, mean_basket=20.0), seed=424242
    )


@pytest.fixture(scope="session")
def tiny_trace():
    """300 items × 120 keywords — for per-test system builds."""
    return generate_trace(
        WorldCupParams(n_items=300, n_keywords=120, mean_basket=12.0), seed=99
    )


def build_small_system(
    trace,
    *,
    n_nodes: int = 150,
    scheme: PlacementScheme = PlacementScheme.UNUSED_HASH_HOT,
    seed: int = 5,
    **config_kwargs,
) -> Meteorograph:
    rng = np.random.default_rng(seed)
    ids = rng.choice(trace.corpus.n_items, size=max(40, trace.corpus.n_items // 20), replace=False)
    sample = trace.corpus.subsample(np.sort(ids))
    cfg = MeteorographConfig(scheme=scheme, **config_kwargs)
    return Meteorograph.build(
        n_nodes, trace.corpus.dim, rng=rng, sample=sample, config=cfg
    )


@pytest.fixture(scope="session")
def build_system_fn():
    """The :func:`build_small_system` helper, exposed as a fixture so test
    modules outside the package tree can use it without imports."""
    return build_small_system


@pytest.fixture(scope="session")
def populated_system(small_trace):
    """A published 150-node system over the small trace (read-only!)."""
    system = build_small_system(small_trace)
    rng = np.random.default_rng(17)
    system.publish_corpus(small_trace.corpus, rng)
    return system


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
