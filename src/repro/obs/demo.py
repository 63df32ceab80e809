"""Instrumented demo sessions backing ``meteorograph trace`` / ``stats``.

:func:`traced_session` stands up a small, fully observable deployment
(trace bus + metrics registry + simulator profiler), publishes a scaled
World-Cup corpus, runs a few maintenance ticks on the event engine, and
then issues the representative operations for the requested experiment
— exact-item finds for the Fig. 7/9 family, similarity retrieves for
the Fig. 10 family, both otherwise.  The CLI renders the resulting span
trees (``trace``) or the registry tables (``stats``).

This module is intentionally a *leaf*: it imports the core system, so
nothing inside :mod:`repro.obs` may import it (the CLI pulls it in
lazily).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import Meteorograph, MeteorographConfig, PlacementScheme
from ..sim.engine import Simulator
from ..sim.failures import fail_fraction
from ..workload import (
    WorldCupParams,
    WorldCupTrace,
    generate_trace,
    item_query,
    keyword_query,
    nth_popular_keyword,
)
from . import Observability
from .trace import Span

__all__ = ["TracedSession", "traced_session", "interesting_roots"]

#: Experiments whose headline metric is the exact-item lookup path.
_FIND_EXPERIMENTS = frozenset({"fig7", "fig9", "joincost", "churn"})
#: Experiments whose headline metric is the similarity walk.
_RETRIEVE_EXPERIMENTS = frozenset(
    {"fig10a", "fig10b", "heterogeneous", "conjunctions", "queryload"}
)


@dataclass
class TracedSession:
    """A built system plus the observability state its run produced."""

    experiment: str
    system: Meteorograph
    obs: Observability
    trace: WorldCupTrace
    n_published: int
    n_finds: int = 0
    n_retrieves: int = 0
    notes: list[str] = field(default_factory=list)


def _session_sizes(scale: float) -> tuple[int, int, int]:
    """(n_items, n_keywords, n_nodes) for a given scale factor."""
    s = max(0.05, float(scale))
    n_items = max(300, int(round(1200 * s)))
    n_keywords = max(150, int(round(400 * s)))
    n_nodes = max(40, int(round(80 * s)))
    return n_items, n_keywords, n_nodes


def traced_session(
    experiment: str = "fig7",
    *,
    scale: float = 1.0,
    seed: int = 7,
    obs: Observability | None = None,
) -> TracedSession:
    """Run a small instrumented session shaped after ``experiment``.

    The deployment is deliberately tight on capacity (≈2× the ideal
    per-node load) so publishes exercise the displacement chain, and it
    replicates (k=2) with periodic repair on a simulator so the
    profiler's ``sim.step`` / ``sim.queue_depth`` instruments populate.
    """
    n_items, n_keywords, n_nodes = _session_sizes(scale)
    rng = np.random.default_rng(seed)
    observability = obs if obs is not None else Observability()
    trace = generate_trace(
        WorldCupParams(n_items=n_items, n_keywords=n_keywords), seed=19980724
    )
    sample_ids = np.sort(
        rng.choice(n_items, size=max(64, n_items // 10), replace=False)
    )
    sample = trace.corpus.subsample(sample_ids)

    sim = Simulator()
    capacity = max(4, int(round(2.0 * n_items / n_nodes)))
    config = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH_HOT,
        node_capacity=capacity,
        replication_factor=2,
        observability=observability,
    )
    system = Meteorograph.build(
        n_nodes,
        trace.corpus.dim,
        rng=rng,
        config=config,
        sample=sample,
        simulator=sim,
    )
    system.publish_corpus(trace.corpus, rng)

    session = TracedSession(
        experiment=experiment,
        system=system,
        obs=observability,
        trace=trace,
        n_published=system.published_count,
    )

    # Maintenance on the event engine: periodic replica repair plus a
    # small failure batch halfway through, so repair has work to do and
    # the profiler sees a non-trivial queue.
    sim.schedule_every(1.0, system.replication.repair)
    sim.schedule(
        2.5, lambda: fail_fraction(system.network, 0.05, rng)
    )
    sim.run(until=6.0)
    session.notes.append(f"simulator ran {sim.events_fired} events to t={sim.now:g}")

    run_finds = experiment not in _RETRIEVE_EXPERIMENTS
    run_retrieves = experiment not in _FIND_EXPERIMENTS

    if run_finds:
        for item_id in (0, 1, int(n_items // 2)):
            origin = system.random_origin(rng)
            system.find(origin, item_id)
            session.n_finds += 1

    if run_retrieves:
        for n in (1, 3):
            q = keyword_query(
                trace, [nth_popular_keyword(trace.corpus, n, max_matches=n_nodes)]
            )
            origin = system.random_origin(rng)
            system.retrieve(origin, q, amount=8)
            session.n_retrieves += 1
        # One exact-vector retrieve: the tightest similarity band.
        origin = system.random_origin(rng)
        system.retrieve(origin, item_query(trace.corpus, 0), amount=4)
        session.n_retrieves += 1

    return session


def interesting_roots(session: TracedSession, limit: int = 3) -> list[Span]:
    """Pick the most informative root spans for display.

    Preference order: a publish whose displacement chain actually ran,
    the deepest find, the deepest retrieve — falling back to the first
    roots recorded.  At most ``limit`` spans are returned.
    """
    roots = list(session.obs.tracer.iter_spans())
    picks: list[Span] = []

    def displaced(sp: Span) -> int:
        return sum(1 for c in sp.children if c.kind == "displace")

    publishes = [r for r in roots if r.kind == "publish"]
    if publishes:
        picks.append(max(publishes, key=displaced))
    for kind in ("find", "retrieve"):
        kin = [r for r in roots if r.kind == kind]
        if kin:
            picks.append(max(kin, key=lambda s: len(s.children)))
    for r in roots:
        if len(picks) >= limit:
            break
        if r not in picks:
            picks.append(r)
    return picks[:limit]
