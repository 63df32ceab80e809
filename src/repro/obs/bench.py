"""Micro-kernel benchmark harness behind ``meteorograph bench``.

Re-implements the setups of ``benchmarks/test_micro_kernels.py`` as a
plain best-of-N-repeats timer so kernel latencies can be snapshotted
without pytest: the vectorised Eq.-5 angle computation, full key
derivation, the Eq.-6 batch remap, warmed overlay routing, and the
local-index query path.  Snapshots are written as ``BENCH_*.json`` files
(the committed ``BENCH_baseline.json`` is the reference point; see
OBSERVABILITY.md) and :func:`compare_results` diffs a fresh run against
one.

Best-of is the right statistic here: every kernel is deterministic CPU
work, so the minimum over repeats estimates the uncontended cost and
higher observations are scheduler noise.  The timed loops run with the
cyclic GC disabled (the ``timeit`` convention) — the publish kernels
allocate hundreds of thousands of container objects, and collection
pauses landing inside one repeat but not another would swamp the
signal.

Kernels that consume state (the publish kernels mutate the system they
publish into) are registered as ``(prepare, fn)`` pairs: ``prepare()``
builds a fresh workload *outside* the timed region and ``fn`` receives
its result, so setup cost never pollutes the measurement.

Like :mod:`repro.obs.demo`, this is a leaf module — it imports the core
system, so nothing inside :mod:`repro.obs` may import it.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_BASELINE",
    "build_kernels",
    "run_benchmarks",
    "write_results",
    "load_results",
    "compare_results",
    "format_results",
    "format_comparison",
]

DEFAULT_BASELINE = "BENCH_baseline.json"

#: Inner-loop iteration counts per kernel (amortise timer overhead on
#: the fast ones without making a full run take minutes).
_LOOPS = {
    "absolute_angles": 3,
    "corpus_to_keys": 3,
    "equalizer_remap": 20,
    "tornado_route": 5,
    "leafset_cached": 50,
    "admission_check": 50,
    "local_index_query": 50,
    "local_index_query_many": 5,
    "local_index_score_many": 5,
    "local_index_add": 5,
    "local_index_add_many": 20,
    "walk_order_cached": 50,
    "walk_order_rebuild": 5,
    "retrieve_batch": 1,
    "retrieve_per_query": 1,
    "angles_chunked": 3,
    "batch_publish": 1,
    "batch_publish_tight": 1,
    "cascade_spill": 1,
    "publish_per_item": 1,
    "repair_tick_incremental": 1,
    "repair_full_scan": 1,
    "lsh_signatures": 3,
    "multi_probe_retrieve": 1,
}


def build_kernels(scale: float = 1.0) -> dict[str, object]:
    """Closures over the micro-kernel workloads.

    Values are either plain ``fn`` closures or ``(prepare, fn)`` pairs
    for state-consuming kernels (see the module docstring).  ``scale``
    shrinks the corpus-bound kernels for quick smoke runs; committed
    baselines should always use ``scale=1.0`` (the exact setups of
    ``benchmarks/test_micro_kernels.py``).
    """
    from ..core import corpus_to_keys, equalizer_from_sample
    from ..core.angles import absolute_angles
    from ..core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
    from ..overlay.idspace import KeySpace
    from ..overlay.tornado import TornadoOverlay
    from ..sim.network import Network
    from ..sim.node import PeerNode, StoredItem
    from ..vsm.index import LocalVsmIndex
    from ..vsm.sparse import SparseVector
    from ..workload import WorldCupParams, generate_trace

    s = max(0.01, float(scale))
    trace = generate_trace(
        WorldCupParams(
            n_items=max(300, int(round(6000 * s))),
            n_keywords=max(150, int(round(1500 * s))),
        ),
        seed=19980724,
    )
    corpus = trace.corpus
    space = KeySpace()
    keys = corpus_to_keys(corpus, space)
    eq = equalizer_from_sample(keys[: min(500, keys.size)], space)

    rng = np.random.default_rng(0)
    network = Network()
    overlay = TornadoOverlay(space, network)
    ids: set[int] = set()
    n_nodes = max(100, int(round(1000 * s)))
    while len(ids) < n_nodes:
        ids.add(int(rng.integers(0, space.modulus)))
    for nid in ids:
        overlay.add_node(nid)
    origins = [overlay.ring.at(int(rng.integers(0, n_nodes))) for _ in range(64)]
    route_keys = [int(rng.integers(0, space.modulus)) for _ in range(64)]
    for o, k in zip(origins, route_keys):  # warm the lazy routing tables
        overlay.route(o, k)

    idx_rng = np.random.default_rng(1)
    idx = LocalVsmIndex(4000)
    for i in range(400):
        kws = np.sort(idx_rng.choice(4000, size=40, replace=False)).astype(np.int64)
        idx.add(StoredItem(i, 0, 0, kws, idx_rng.uniform(0.5, 3.0, 40)))
    q = SparseVector.from_mapping(
        {int(k): 1.0 for k in idx_rng.choice(4000, 5, replace=False)}, 4000
    )

    # Index-build kernels: the same 400-item workload the query kernel
    # searches, timed as 400 scalar row appends (``local_index_add``)
    # and as one columnar block append (``local_index_add_many``) — the
    # scalar/bulk pair of the SoA store's primitive mutation.
    add_rng = np.random.default_rng(2)
    add_items = [
        StoredItem(
            i,
            0,
            0,
            np.sort(add_rng.choice(4000, size=40, replace=False)).astype(np.int64),
            add_rng.uniform(0.5, 3.0, 40),
        )
        for i in range(400)
    ]

    def index_add_all(index) -> int:
        for it in add_items:
            index.add(it)
        return len(add_items)

    def index_add_many(index) -> int:
        index.add_many(add_items)
        return len(add_items)

    def route_all() -> int:
        total = 0
        for o, k in zip(origins, route_keys):
            total += overlay.route(o, k).hops
        return total

    for o in origins:  # warm the epoch-cached leaf sets
        overlay.leaf_set(o)

    def leafset_all() -> int:
        # Pure cache-hit path: the memoised per-node leaf sets of the
        # warmed overlay (the route kernel's per-hop frontier lookup).
        total = 0
        leaf_set = overlay.leaf_set
        for o in origins:
            total += len(leaf_set(o))
        return total

    # Bulk-scoring kernel: the same 400-item node index answering a
    # 64-query batch in one query_many pass (its per-query cost is the
    # read path's analogue of the add_many unboxing fix).
    many_qs = [
        SparseVector.from_mapping(
            {int(k): 1.0 for k in idx_rng.choice(4000, 5, replace=False)}, 4000
        )
        for _ in range(64)
    ]

    # Walk-order memo: cache-hit lookups vs full rebuilds of the
    # materialised neighbor orders (the per-query recomputation the
    # epoch memo removed from every hot-home walk).
    for o in origins:
        overlay.walk_order(o)

    def walk_order_hits() -> int:
        total = 0
        wo = overlay.walk_order
        for o in origins:
            total += len(wo(o))
        return total

    def walk_order_rebuilds() -> int:
        overlay._walk_orders.clear()  # noqa: SLF001 - forcing the miss path
        total = 0
        wo = overlay.walk_order
        for o in origins:
            total += len(wo(o))
        return total

    # Admission fast path: synchronous sends on a fabric with *no*
    # controller attached — the per-send cost of the zero-cost-when-off
    # contract must stay one attribute load + None check over the
    # pre-admission fabric (the ``tornado_route`` gate guards the same
    # contract from above, since every routing hop passes through it).
    adm_network = Network()
    adm_ids = list(range(16))
    for nid in adm_ids:
        adm_network.add_node(PeerNode(nid))

    def admission_disabled_sends() -> int:
        send = adm_network.send
        n = len(adm_ids)
        for i in range(64):
            send(adm_ids[i % n], adm_ids[(i + 1) % n], kind="route")
        return 64

    # Publish kernels: each timed call consumes a fresh system built by
    # ``prepare`` (publishing mutates node storage), with unbounded
    # capacity — the displacement-free Fig. 7/8 configuration — under
    # the UNUSED_HASH scheme the experiments default to (balanced keys,
    # so publishes spread over the whole ring rather than the clustered
    # angle region).  Both kernels publish the same corpus with the
    # same seeds; their ratio is the batch-path speedup over the
    # per-item loop.
    publish_cfg = MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH)
    sample_rng = np.random.default_rng(5)
    sample_ids = np.sort(
        sample_rng.choice(corpus.n_items, min(100, corpus.n_items), replace=False)
    )
    publish_sample = corpus.subsample(sample_ids)

    def prepare_publish() -> object:
        return Meteorograph.build(
            n_nodes,
            corpus.dim,
            rng=np.random.default_rng(9),
            sample=publish_sample,
            config=publish_cfg,
        )

    def publish_batch(system) -> int:
        res = system.publish_corpus(corpus, np.random.default_rng(3), batch=True)
        return len(res)

    def publish_sequential(system) -> int:
        res = system.publish_corpus(corpus, np.random.default_rng(3), batch=False)
        return len(res)

    # Tight-capacity publish: the same corpus/ring but every node capped
    # at 8 items, so the bulk branch is unavailable and placement runs
    # through the Fig. 2 displacement machinery — the cascade engine's
    # headline workload (the per-item chain loop took seconds here).
    tight_cfg = MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH, node_capacity=8)

    def prepare_publish_tight() -> object:
        return Meteorograph.build(
            n_nodes,
            corpus.dim,
            rng=np.random.default_rng(9),
            sample=publish_sample,
            config=tight_cfg,
        )

    # Spill-dominated cascade: a small ring loaded to ~83% of aggregate
    # capacity, so most publishes displace and chains run long — times
    # the engine's shadow/event loop rather than the route/key stages.
    spill_n_nodes = max(50, int(round(200 * s)))
    spill_ids = np.sort(
        np.random.default_rng(7).choice(
            corpus.n_items, min(2000, corpus.n_items), replace=False
        )
    )
    spill_corpus = corpus.subsample(spill_ids)
    spill_cfg = MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH, node_capacity=12)

    def prepare_spill() -> object:
        return Meteorograph.build(
            spill_n_nodes,
            corpus.dim,
            rng=np.random.default_rng(13),
            sample=publish_sample,
            config=spill_cfg,
        )

    def publish_spill(system) -> int:
        res = system.publish_corpus(spill_corpus, np.random.default_rng(3), batch=True)
        return len(res)

    # Retrieve kernels: a Zipf(1.2) storm of co-located queries — the
    # hot-keyword regime X-QPS replays at full size — against one
    # pre-built, fully published ring.  Retrieval is read-only, so both
    # kernels share the system (no prepare); their ratio is the batch
    # read path's speedup over the sequential per-query loop, and both
    # execute identical protocol work by the retrieve_many equivalence
    # contract.
    from ..core.search import retrieve
    from ..core.search_batch import retrieve_many
    from ..workload.queries import keyword_query, nth_popular_keyword
    from ..workload.zipf import ZipfSampler

    qps_system = prepare_publish()
    qps_system.publish_corpus(corpus, np.random.default_rng(3), batch=True)
    qrng = np.random.default_rng(17)
    n_queries = max(100, int(round(1000 * s)))
    kw_cap = max(8, min(n_nodes, corpus.n_items // 20))
    top_kws = [
        nth_popular_keyword(corpus, 1 + r, max_matches=kw_cap) for r in range(8)
    ]
    qvecs = [keyword_query(trace, [kw]) for kw in top_kws]
    ranks = ZipfSampler(len(qvecs), 1.2).sample(qrng, n_queries)
    qps_queries = [qvecs[r] for r in ranks.tolist()]
    # Queries enter through a 64-node gateway set (cycled), the X-QPS
    # arrangement: route dedup then matters alongside walk sharing.
    gateway = [qps_system.random_origin(qrng) for _ in range(64)]
    qps_origins = [gateway[i % len(gateway)] for i in range(n_queries)]

    def retrieve_sequential() -> int:
        total = 0
        for o, q in zip(qps_origins, qps_queries):
            total += retrieve(qps_system, o, q, None, patience=16).found
        return total

    def retrieve_batched() -> int:
        return sum(
            r.found
            for r in retrieve_many(
                qps_system, qps_origins, qps_queries, None, patience=16
            )
        )

    # Repair kernels: a replicated system with a 5% failure batch, then
    # one maintenance pass — dirty-set incremental vs full scan.  The
    # ratio is the O(affected)-vs-O(published) gap the RepairEngine
    # exists for (results/repairscale.csv shows it at 10^4 items).
    from ..maint import RepairEngine
    from ..sim.failures import fail_fraction

    repair_cfg = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH, replication_factor=2
    )
    repair_ids = np.sort(
        np.random.default_rng(6).choice(
            corpus.n_items, min(2000, corpus.n_items), replace=False
        )
    )
    repair_corpus = corpus.subsample(repair_ids)

    def prepare_repair(incremental: bool):
        def prep() -> object:
            system = Meteorograph.build(
                n_nodes,
                corpus.dim,
                rng=np.random.default_rng(11),
                sample=publish_sample,
                config=repair_cfg,
            )
            system.publish_corpus(repair_corpus, np.random.default_rng(4))
            engine = RepairEngine(system).attach() if incremental else None
            fail_fraction(system.network, 0.05, np.random.default_rng(8))
            return system, engine

        return prep

    def repair_incremental(state) -> int:
        _, engine = state
        return engine.tick()

    def repair_full(state) -> int:
        system, _ = state
        return system.replication.repair()

    # LSH kernels: the banded signature sweep (the cosine-LSH write
    # path's one dense kernel — a CSR × hyperplane projection plus bit
    # packing) and the NearBucket multi-probe read path: 64 corpus-row
    # queries against a published 4-band ring, each spending the
    # L·(1 + W) bounded probe budget through the facade.
    from ..lsh import CosineLshScheme

    lsh_scheme = CosineLshScheme(space, corpus.dim, bands=4, band_bits=8, seed=0)
    lsh_cfg = MeteorographConfig(
        scheme=PlacementScheme.NONE,
        naming_scheme="cosine-lsh",
        lsh_bands=4,
        lsh_band_bits=8,
        lsh_seed=0,
        lsh_probe_width=2,
    )
    lsh_system = Meteorograph.build(
        n_nodes,
        corpus.dim,
        rng=np.random.default_rng(9),
        sample=publish_sample,
        config=lsh_cfg,
    )
    lsh_system.publish_corpus(corpus, np.random.default_rng(3), batch=True)
    lsh_rng = np.random.default_rng(21)
    lsh_queries = [
        corpus.vector(int(i))
        for i in lsh_rng.choice(corpus.n_items, 64, replace=False)
    ]
    lsh_origins = [lsh_system.random_origin(lsh_rng) for _ in lsh_queries]

    def lsh_probe_all() -> int:
        total = 0
        for o, q in zip(lsh_origins, lsh_queries):
            total += lsh_system.retrieve(o, q, 10).found
        return total

    return {
        "absolute_angles": lambda: absolute_angles(corpus),
        "angles_chunked": lambda: absolute_angles(corpus, chunk_rows=1024),
        "corpus_to_keys": lambda: corpus_to_keys(corpus, space),
        "equalizer_remap": lambda: eq.remap_many(keys),
        "tornado_route": route_all,
        "leafset_cached": leafset_all,
        "admission_check": admission_disabled_sends,
        "local_index_query": lambda: idx.query(q, 20),
        "local_index_query_many": lambda: idx.query_many(many_qs, 20),
        "local_index_score_many": lambda: idx.score_many(many_qs),
        "local_index_add": (lambda: LocalVsmIndex(4000), index_add_all),
        "local_index_add_many": (lambda: LocalVsmIndex(4000), index_add_many),
        "walk_order_cached": walk_order_hits,
        "walk_order_rebuild": walk_order_rebuilds,
        "retrieve_batch": retrieve_batched,
        "retrieve_per_query": retrieve_sequential,
        "batch_publish": (prepare_publish, publish_batch),
        "batch_publish_tight": (prepare_publish_tight, publish_batch),
        "cascade_spill": (prepare_spill, publish_spill),
        "publish_per_item": (prepare_publish, publish_sequential),
        "repair_tick_incremental": (prepare_repair(True), repair_incremental),
        "repair_full_scan": (prepare_repair(False), repair_full),
        "lsh_signatures": lambda: lsh_scheme.signatures(corpus),
        "multi_probe_retrieve": lsh_probe_all,
    }


def _time_kernel(
    fn: Callable[..., object],
    loops: int,
    repeats: int,
    prepare: Callable[[], object] | None = None,
) -> dict:
    """Best-of-``repeats`` timing of ``loops`` calls, GC paused.

    With ``prepare``, every timed call receives a fresh ``prepare()``
    result (built untimed) — the protocol for kernels that consume
    their workload.
    """
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Warm caches / allocator before the measured repeats.
        fn(prepare()) if prepare is not None else fn()
        for _ in range(repeats):
            states = [prepare() for _ in range(loops)] if prepare is not None else None
            gc.collect()
            t0 = time.perf_counter()
            if states is None:
                for _ in range(loops):
                    fn()
            else:
                for st in states:
                    fn(st)
            samples.append((time.perf_counter() - t0) / loops)
    finally:
        if gc_was_enabled:
            gc.enable()
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "best_us": float(arr.min() * 1e6),
        "mean_us": float(arr.mean() * 1e6),
        "repeats": repeats,
        "loops": loops,
    }


def run_benchmarks(
    *,
    scale: float = 1.0,
    repeats: int = 5,
    kernels: "list[str] | None" = None,
) -> dict:
    """Time every micro-kernel; returns the snapshot dict (JSON-ready).

    ``kernels`` restricts the run to the named subset (unknown names
    raise, so typos do not silently produce empty snapshots).
    """
    built = build_kernels(scale)
    if kernels is not None:
        unknown = sorted(set(kernels) - set(built))
        if unknown:
            raise KeyError(f"unknown kernels: {', '.join(unknown)}")
        built = {name: built[name] for name in built if name in set(kernels)}
    results = {}
    for name, fn in built.items():
        prepare = None
        if isinstance(fn, tuple):
            prepare, fn = fn
        results[name] = _time_kernel(fn, _LOOPS[name], repeats, prepare)
    return {
        "meta": {
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "scale": scale,
            "repeats": repeats,
        },
        "kernels": results,
    }


def write_results(results: dict, path: str | Path) -> Path:
    p = Path(path)
    p.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return p


def load_results(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def compare_results(baseline: dict, current: dict) -> list[dict]:
    """Per-kernel delta of ``current`` vs ``baseline`` (best-of times).

    ``delta`` is the fractional change of the current best over the
    baseline best: positive = slower than the baseline.
    """
    rows = []
    for name in sorted(set(baseline["kernels"]) | set(current["kernels"])):
        b = baseline["kernels"].get(name)
        c = current["kernels"].get(name)
        if b is None or c is None:
            rows.append({"kernel": name, "baseline_us": b and b["best_us"],
                         "current_us": c and c["best_us"], "delta": None})
            continue
        rows.append({
            "kernel": name,
            "baseline_us": b["best_us"],
            "current_us": c["best_us"],
            "delta": c["best_us"] / b["best_us"] - 1.0,
        })
    return rows


def format_results(results: dict) -> str:
    lines = ["kernel                  best (µs)   mean (µs)",
             "-" * 45]
    for name, r in sorted(results["kernels"].items()):
        lines.append(f"{name:<22}{r['best_us']:>11.1f}{r['mean_us']:>12.1f}")
    return "\n".join(lines)


def format_comparison(rows: list[dict], *, threshold: float = 0.05) -> str:
    lines = ["kernel                  baseline µs  current µs    delta",
             "-" * 56]
    for row in rows:
        if row["delta"] is None:
            lines.append(f"{row['kernel']:<24}{'(missing on one side)'}")
            continue
        flag = "  <-- regression" if row["delta"] > threshold else ""
        lines.append(
            f"{row['kernel']:<24}{row['baseline_us']:>11.1f}"
            f"{row['current_us']:>12.1f}{row['delta']:>+9.1%}{flag}"
        )
    return "\n".join(lines)
