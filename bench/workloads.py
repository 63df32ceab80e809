"""The six benchmark workloads.

Each workload drives the simulator only through its public API, from one
process, in a closed loop with one client.  Constructing a workload *is*
its set-up (inputs from the seed, ring build, pre-publish, one warm-up
repeat where the system persists); ``prepare()`` is untimed per-repeat
work (rebuilding a ring the timed phase consumes); ``run()`` is the timed
phase and returns a :class:`Repeat`; ``verify()`` checks the outputs
outside every timer.

Sizes are chosen so one repeat takes 0.8–2.5 s on the 2-core box and a
whole run (three set-ups + ``run_seconds`` of repeats + checks) fits the
per-run budget ``BENCHMARK.json`` implies; ``README.md`` records how they
relate to the experiments they mirror (X-BUILD, X-QPS, X-CHAOS, X-LSH).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import Meteorograph, MeteorographConfig, PlacementScheme
from repro.experiments.common import sample_of
from repro.experiments.qps import qps_storm
from repro.maint import (
    AntiEntropyEngine,
    LossyLinks,
    PoissonChurn,
    RepairEngine,
    RetryPolicy,
    install_scenarios,
)
from repro.sim.engine import Simulator
from repro.sim.linkfaults import LinkFaultPlane
from repro.workload import WorldCupParams, generate_trace, multi_keyword_query

from . import checks

__all__ = ["Repeat", "Workload", "WORKLOADS"]

_now = time.perf_counter


@dataclass
class Repeat:
    """What one timed repeat did."""

    #: Primary operations completed (items published / queries answered).
    ops: int
    #: Simulated messages those operations reported.
    msgs: int
    #: Host latency samples, one per operation (per window on read-storm:
    #: every query of a window waits for the window's drain).
    latencies_s: list
    #: Exact simulated facts; every repeat of a run must reproduce them.
    sim: dict
    #: Outputs kept for :meth:`Workload.verify`.
    out: object = None
    #: Host time of the phase the operations ran in, when the timed
    #: phase has other parts too (None = the whole repeat).
    ops_wall_s: Optional[float] = None
    #: Filled by the harness: wall time of ``run()`` and the MetricSink delta.
    wall_s: float = 0.0
    sink: dict = field(default_factory=dict)


#: What is benchmarked is a fixed *deployment* under seeded *traffic*.
#: The deployment — the dataset (the synthetic World Cup '98 trace at the
#: generator seed every experiment of this repo uses, the trace's date),
#: the ring's node ids, the equalizer sample, the LSH hyperplanes — is
#: drawn from ``DEPLOY_SEED``.  ``--seed`` draws everything sent to it:
#: publish order and origins, queries, query origins, probe targets, link
#: faults, retry jitter and the churn schedule.  Redrawing the deployment
#: per seed would change the *shape* of a workload, not just its inputs:
#: displacements per published item range 1.8-5.5 across rings, and some
#: corpora have no keyword the storm can use.
DEPLOY_SEED = 19980724


def _trace(n_items: int):
    return generate_trace(
        WorldCupParams(n_items=n_items, n_keywords=max(300, n_items // 5)), seed=DEPLOY_SEED
    )


def _origins(system: Meteorograph, rng: np.random.Generator, n: int) -> list:
    alive = list(system.network.alive_ids())
    return [alive[i] for i in rng.integers(0, len(alive), size=n).tolist()]


def _distinct_queries(trace, rng: np.random.Generator, n: int) -> list:
    seen: set = set()
    out = []
    while len(out) < n:
        q, _ = multi_keyword_query(trace, rng, n_keywords=2)
        key = q.indices.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(q)
    return out


class Workload:
    """Base: subclasses set ``name``/``why``/``sizes`` and the four hooks."""

    name = ""
    why = ""
    #: (full, quick) size knobs; ``--quick`` keeps every workload under 2 s.
    sizes: tuple = ({}, {})
    #: False where the primary operation is a publish, not a query.
    ops_are_queries = True
    #: Set-up ends with one full untimed repeat where the system persists
    #: across repeats (lazy routing tables, walk-order caches must be
    #: filled before anything is timed).  Workloads that rebuild their
    #: system in ``prepare()`` skip it: there is nothing to keep warm.
    warm_up = True
    #: Seeds the ring's node ids and the equalizer sample.
    ring_seed = DEPLOY_SEED + 1

    def __init__(self, seed: int, *, quick: bool = False, observability: bool = False) -> None:
        self.seed = seed
        self.observability = observability
        self.size = dict(self.sizes[1 if quick else 0])
        self.system: Meteorograph
        self.build_inputs()
        if self.warm_up:
            self.prepare()
            self.run()

    def config(self, **overrides) -> MeteorographConfig:
        return MeteorographConfig(observability=self.observability, **overrides)

    def build(self, corpus, n_nodes: int, config, simulator=None) -> Meteorograph:
        """The deployment's ring and equalizer sample."""
        rng = np.random.default_rng(self.ring_seed)
        return Meteorograph.build(
            n_nodes, corpus.dim, rng=rng, sample=sample_of(corpus, rng),
            config=config, simulator=simulator,
        )

    def build_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed per-repeat work (default: the system is read-only)."""

    def run(self) -> Repeat:
        raise NotImplementedError

    def verify(self, rep: Repeat) -> "checks.Verdict":
        raise NotImplementedError


class WriteCascade(Workload):
    name = "write-cascade"
    why = (
        "batch publish at finite capacity 4c/3 on a fresh ring: core.cascade and "
        "index.add_many do the work; routing and every read layer are idle"
    )
    sizes = (dict(items=48_000, nodes=384), dict(items=3_000, nodes=24))
    ops_are_queries = False
    warm_up = False

    def build_inputs(self) -> None:
        self.dataset = _trace(self.size["items"]).corpus
        # The traffic: the dataset's items arriving in a seeded order
        # (displacement chains run in arrival order).
        order = np.random.default_rng(self.seed).permutation(self.dataset.n_items)
        self.corpus = self.dataset.subsample(order)
        c = self.size["items"] / self.size["nodes"]
        self.capacity = int(round(c * 4 / 3))

    def prepare(self) -> None:
        self.system = self.build(
            self.dataset, self.size["nodes"],
            self.config(scheme=PlacementScheme.UNUSED_HASH, node_capacity=self.capacity),
        )

    def run(self) -> Repeat:
        t0 = _now()
        results = self.system.publish_corpus(
            self.corpus, np.random.default_rng(self.seed + 2), batch=True
        )
        dt = _now() - t0
        return Repeat(
            ops=len(results),
            msgs=sum(r.messages for r in results),
            latencies_s=[dt],
            sim={"dropped": sum(1 for r in results if not r.success)},
            out=results,
        )

    def verify(self, rep: Repeat):
        return checks.check_write_cascade(self.system, self.corpus.n_items, rep.out)


class _ReadWorkload(Workload):
    """Shared set-up of the read workloads: one published, read-only ring."""

    scheme = PlacementScheme.UNUSED_HASH

    def publish_ring(self) -> None:
        self.trace = _trace(self.size["items"])
        self.corpus = self.trace.corpus
        self.system = self.build(
            self.corpus, self.size["nodes"], self.config(scheme=self.scheme)
        )
        self.system.publish_corpus(self.corpus, np.random.default_rng(DEPLOY_SEED + 2))


class ReadTopK(_ReadWorkload):
    name = "read-topk"
    why = (
        "distinct 2-keyword top-10 scalar retrieves: LocalVsmIndex.query and the "
        "core.search walk dominate; nothing is shared, so batching or caching must not move it"
    )
    sizes = (dict(items=20_000, nodes=400, queries=3_000), dict(items=2_000, nodes=40, queries=200))

    def build_inputs(self) -> None:
        self.publish_ring()
        qrng = np.random.default_rng(self.seed + 3)
        self.queries = _distinct_queries(self.trace, qrng, self.size["queries"])
        self.origins = _origins(self.system, qrng, len(self.queries))

    def run(self) -> Repeat:
        retrieve = self.system.retrieve
        results, lat = [], []
        for origin, q in zip(self.origins, self.queries):
            t0 = _now()
            res = retrieve(origin, q, 10, max_walk=32)
            lat.append(_now() - t0)
            results.append(res)
        return Repeat(
            ops=len(results),
            msgs=sum(r.messages for r in results),
            latencies_s=lat,
            sim={
                "found": sum(r.found for r in results),
                "route_hops": sum(r.route_hops for r in results),
            },
            out=results,
        )

    def verify(self, rep: Repeat):
        return checks.check_read_topk(self.corpus, self.queries, rep.out, self.seed)


class ReadStorm(_ReadWorkload):
    name = "read-storm"
    why = (
        "X-QPS Zipf storm through 64 gateways, retrieve_many in windows of 128: "
        "duplicate groups and shared sweeps put the work in core.search_batch and query_many"
    )
    sizes = (
        dict(items=20_000, nodes=400, queries=1_024, window=128),
        dict(items=2_000, nodes=120, queries=128, window=64),
    )
    #: X-QPS's ring (``run_qps`` seed), so the MetricSink bill per query
    #: is the one ``results/qps.csv`` records (212.7); other rings of the
    #: same size give 280, 335 or — with an unlucky equalizer sample — 22.
    ring_seed = 702

    def build_inputs(self) -> None:
        self.publish_ring()
        self.origins, self.queries = qps_storm(
            self.trace, self.system, n_nodes=self.size["nodes"],
            queries=self.size["queries"], skew=1.2, top_keywords=8, seed=self.seed,
        )

    def run(self) -> Repeat:
        w = self.size["window"]
        results, lat = [], []
        for i in range(0, len(self.queries), w):
            t0 = _now()
            out = self.system.retrieve_many(
                self.origins[i : i + w], self.queries[i : i + w], None, patience=20
            )
            lat.append(_now() - t0)
            results.extend(out)
        return Repeat(
            ops=len(results),
            msgs=sum(r.messages for r in results),
            latencies_s=lat,
            sim={"found": sum(r.found for r in results)},
            out=results,
        )

    def verify(self, rep: Repeat):
        return checks.check_read_storm(
            self.system, self.corpus, self.origins, self.queries, rep.out,
            window=self.size["window"], seed=self.seed,
        )


class LookupExact(_ReadWorkload):
    name = "lookup-exact"
    why = (
        "exact find() on the paper's N=10000 ring: overlay routing and Network.send "
        "accounting are ~90% of the time, the index ~0, so a routing change shows and an index change must not"
    )
    scheme = PlacementScheme.UNUSED_HASH_HOT
    sizes = (
        dict(items=20_000, nodes=10_000, queries=20_000),
        dict(items=2_000, nodes=1_000, queries=2_000),
    )

    def build_inputs(self) -> None:
        self.publish_ring()
        qrng = np.random.default_rng(self.seed + 3)
        self.items = qrng.integers(0, self.corpus.n_items, size=self.size["queries"]).tolist()
        self.origins = _origins(self.system, qrng, len(self.items))

    def run(self) -> Repeat:
        find = self.system.find
        results, lat = [], []
        for origin, item in zip(self.origins, self.items):
            t0 = _now()
            res = find(origin, item)
            lat.append(_now() - t0)
            results.append(res)
        return Repeat(
            ops=len(results),
            msgs=sum(r.messages for r in results),
            latencies_s=lat,
            sim={
                "found": sum(r.found for r in results),
                "route_hops": sum(r.closest_hops for r in results),
            },
            out=results,
        )

    def verify(self, rep: Repeat):
        return checks.check_lookup_exact(self.system, self.items, rep.out)


class HostileMix(Workload):
    name = "hostile-mix"
    why = (
        "replication 3 + retry + link loss + churn + repair, writes beside reads: every "
        "batch engine falls back here, so sequential loops, replication, maint.* and sim.* work"
    )
    sizes = (
        dict(items=10_000, nodes=400, horizon=20, finds=200, retrieves=50),
        dict(items=1_200, nodes=100, horizon=6, finds=40, retrieves=10),
    )
    #: Bounded drain after quiescence (the chaos_cell shape).
    max_drain = 12
    warm_up = False

    def build_inputs(self) -> None:
        self.trace = _trace(self.size["items"])
        corpus = self.trace.corpus
        n = corpus.n_items
        self.pre_ids = np.arange(int(round(0.7 * n)), dtype=np.int64)
        self.mid_ids = np.arange(self.pre_ids.size, n, dtype=np.int64)
        self.pre_corpus = corpus.subsample(self.pre_ids)
        self.mid_corpus = corpus.subsample(self.mid_ids)
        qrng = np.random.default_rng(self.seed + 3)
        self.queries = _distinct_queries(
            self.trace, qrng, self.size["horizon"] * self.size["retrieves"]
        )

    def prepare(self) -> None:
        self.rng = np.random.default_rng(self.seed + 1)  # publish origins, churn
        self.system = self.build(
            self.trace.corpus, self.size["nodes"],
            self.config(
                scheme=PlacementScheme.UNUSED_HASH_HOT,
                replication_factor=3,
                retry_policy=RetryPolicy(
                    seed=self.seed, max_attempts=4, base_delay=0.5, max_delay=4.0,
                    max_total_delay=30.0,
                ),
            ),
            simulator=Simulator(),
        )

    def run(self) -> Repeat:
        system, rng, size = self.system, self.rng, self.size
        network = system.network
        sim = network.simulator
        horizon = float(size["horizon"])
        # Phase A: 70% of the corpus on a healthy fabric.
        system.publish_corpus(self.pre_corpus, rng, item_ids=self.pre_ids)
        t_b = _now()
        # Phase B: faults, churn, maintenance, a mid-run publish tranche, probes.
        plane = network.attach_link_faults(LinkFaultPlane(seed=self.seed))
        repair = RepairEngine(system).attach()
        repair.schedule(2.0)
        antientropy = AntiEntropyEngine(system, repair).attach()
        antientropy.schedule(2.0)
        stats = install_scenarios(
            system,
            [
                LossyLinks(drop=0.05, start=0.0, stop=horizon),
                PoissonChurn(depart_rate=2.0, stop=horizon),
            ],
            rng,
        )
        self.tranche_at = 0.45 * horizon
        sim.schedule_at(
            self.tranche_at,
            lambda: system.publish_corpus(self.mid_corpus, rng, item_ids=self.mid_ids),
        )
        self.probe_rng = np.random.default_rng(self.seed + 5)
        self.next_query = iter(self.queries)
        self.tally = {"finds": 0, "found": 0, "retried": 0, "retrieves": 0, "msgs": 0}
        self.lat: list = []
        for second in range(size["horizon"]):
            sim.schedule_at(second + 0.5, lambda: self.probe())
        sim.run(until=horizon)
        plane.set_loss(0.0, 0.0, 0.0)
        sim.run(until=horizon + 20.0)
        for _ in range(self.max_drain):
            antientropy.tick()
            repair.tick()
            if not repair.dirty and not antientropy.pending:
                break
        t_end = _now()
        return Repeat(
            ops=len(self.lat),
            msgs=self.tally["msgs"],
            latencies_s=self.lat,
            sim={**self.tally, "departures": stats.failed, "plane": plane.snapshot(),
                 "replaced": antientropy.total_replaced, "events": sim.events_fired},
            out=(repair, plane),
            ops_wall_s=t_end - t_b,
        )

    def probe(self) -> None:
        """One simulated second's probes: finds of random published items
        and a window of top-10 retrieves, from random live origins.  This is the
        benchmark's own code running inside ``Simulator.run``; the tracer
        records it as a ``harness`` span so it is not billed to ``sim``."""
        system, size, tally, prng = self.system, self.size, self.tally, self.probe_rng
        late = system.network.simulator.now >= self.tranche_at
        published = self.trace.corpus.n_items if late else self.pre_ids.size
        origins = _origins(system, prng, size["finds"] + size["retrieves"])
        items = prng.integers(0, published, size=size["finds"]).tolist()
        for origin, item in zip(origins, items):
            t0 = _now()
            res = system.find(origin, item, max_walk=12)
            tally["msgs"] += res.messages
            if not res.found:
                # A route that stalls on a lost message can end away from
                # every copy (~1 find in 40 000 here); the client asks once
                # more, from another live origin.
                tally["retried"] += 1
                res = system.find(_origins(system, prng, 1)[0], item, max_walk=12)
                tally["msgs"] += res.messages
            self.lat.append(_now() - t0)
            tally["finds"] += 1
            tally["found"] += res.found
        # The second's retrieves arrive as one window: under this
        # configuration retrieve_many falls back to the scalar loop,
        # which is what search_batch.fallback_share makes visible.
        window = [next(self.next_query) for _ in range(size["retrieves"])]
        t0 = _now()
        results = system.retrieve_many(origins[size["finds"]:], window, 10, max_walk=32)
        self.lat.extend([_now() - t0] * len(results))
        tally["retrieves"] += len(results)
        tally["msgs"] += sum(r.messages for r in results)

    def verify(self, rep: Repeat):
        repair, plane = rep.out
        return checks.check_hostile_mix(self.system, repair, plane, rep.sim)


class LshProbe(Workload):
    name = "lsh-probe"
    why = (
        "X-LSH L=8 cell: cosine-LSH publish then top-10 multi-probe retrieves; the lsh "
        "layer is idle elsewhere and dominant here, trading recall against messages"
    )
    sizes = (dict(items=10_000, nodes=200, queries=48), dict(items=1_000, nodes=40, queries=8))
    warm_up = False

    def build_inputs(self) -> None:
        self.corpus = _trace(self.size["items"]).corpus
        # The query rows belong to the deployment, not to the seed: one
        # query's cost is heavy-tailed (cv ~0.8 over corpus rows), so 48
        # rows redrawn per seed move every host metric by +-11% (one
        # sigma) — more than a regression bound — and the ~600 rows that
        # would average it out do not fit a run.  The seed draws the
        # order items are published in and the origin of every query.
        qrng = np.random.default_rng(DEPLOY_SEED + 3)
        qids = np.sort(
            qrng.choice(self.corpus.n_items, size=self.size["queries"], replace=False)
        )
        self.queries = [self.corpus.vector(int(i)) for i in qids]
        order = np.random.default_rng(self.seed).permutation(self.corpus.n_items)
        self.arrivals = self.corpus.subsample(order)
        self.arrival_ids = order

    def prepare(self) -> None:
        self.system = self.build(
            self.corpus, self.size["nodes"],
            self.config(
                scheme=PlacementScheme.NONE, naming_scheme="cosine-lsh", lsh_bands=8,
                lsh_band_bits=7, lsh_seed=DEPLOY_SEED, lsh_probe_width=2,
            ),
        )
        self.origins = _origins(
            self.system, np.random.default_rng(self.seed + 4), len(self.queries)
        )

    def run(self) -> Repeat:
        self.system.publish_corpus(
            self.arrivals, np.random.default_rng(self.seed + 2), item_ids=self.arrival_ids
        )
        t_q = _now()
        retrieve = self.system.retrieve
        results, lat = [], []
        for origin, q in zip(self.origins, self.queries):
            t0 = _now()
            res = retrieve(origin, q, 10)
            lat.append(_now() - t0)
            results.append(res)
        return Repeat(
            ops=len(results),
            msgs=sum(r.messages for r in results),
            latencies_s=lat,
            sim={
                "found": sum(r.found for r in results),
                "stored": self.system.network.total_items(),
            },
            out=results,
            ops_wall_s=_now() - t_q,
        )

    def verify(self, rep: Repeat):
        return checks.check_lsh_probe(self.corpus, self.queries, rep.out)


WORKLOADS = {
    w.name: w
    for w in (WriteCascade, ReadTopK, ReadStorm, LookupExact, HostileMix, LshProbe)
}
