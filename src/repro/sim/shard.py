"""Sharded simulator: a ring-partitioned partition-correctness harness.

The single-process simulator keeps every node's item state in one
system.  This module splits the **key ring** into ``n_shards``
contiguous rank ranges and holds each range's item state in its own
in-process worker replica, coordinated in lockstep *ticks*:

1. the coordinator plans the tick's batch **globally** on its control
   replica — publish sweep geometry via the same
   :class:`repro.core.publish.SweepPlan` code the single-process engine
   runs, retrieve partitioning by each query's live home;
2. cross-shard work ships to the owning workers as compact numpy
   payloads (CSR row slices, key/home/id arrays), one per shard per
   tick — a worker sees only what was shipped to it, so a twin-identical
   run proves the shipped slice suffices;
3. workers execute **intra-shard** work through the existing batch
   engines (:func:`repro.core.publish.store_runs`,
   :func:`repro.core.search_batch.retrieve_many` unchanged) and answer
   with results plus a stamped :class:`repro.sim.metrics.SinkDelta`;
4. the tick barrier: the coordinator merges all deltas into the master
   sink (associative + idempotent, so grouping and re-delivery cannot
   skew the bill) and advances the :class:`repro.sim.engine.TickClock`.

**Determinism / equivalence contract.**  Given the same build seed and
workload, a sharded run is *placement- and accounting-identical* to the
single-process run:

* every worker holds a full **membership** replica (node ids,
  capacities, routing structure) built from the same seed, so routes and
  walk orders are bit-identical;
* item **state** is restricted to the shard's owned rank range plus a
  ``halo`` of ranks on each side; publishes whose home falls in a
  neighbor's halo are replicated there (state-only, never re-billed), so
  any walk that stays within ``halo`` steps of its home sees exactly the
  global item state;
* the stable argsort that orders the publish sweep restricts cleanly to
  each shard's subset, so store runs group identically; retrieve groups
  are keyed (origin, key, content) and a group's home lives in exactly
  one shard, so dedup/replay sharing is preserved exactly;
* walks are **guarded**, not truncated: a result whose walk left the
  halo raises :class:`ShardWalkError` before anything is returned — a
  sharded run either matches the single-process run or dies loudly,
  never silently diverges.

Configurations whose message charges are data-dependent per node
(admission control, link faults, retries, replication, directory
pointers, multi-key naming) cannot be re-billed exactly from a plan and
are rejected with :class:`ShardConfigError` — the same feature set the
batch engines themselves guard on.

Everything runs in one process: this is a correctness harness for the
ring cut, halo, per-shard billing and delta merge, not a speed-up
(EXPERIMENTS.md X-SCALE records why there is no multi-process mode).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..core.publish import PublishResult, SweepPlan, store_runs
from ..core.search_batch import retrieve_many as _core_retrieve_many
from ..vsm.sparse import SparseVector
from .engine import TickClock
from .metrics import MetricSink, SinkDelta
from .node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph
    from ..core.search import RetrieveResult
    from ..vsm.sparse import Corpus

__all__ = [
    "DEFAULT_HALO",
    "ShardSpec",
    "ShardWorker",
    "ShardedSimulator",
    "ShardConfigError",
    "ShardCapacityError",
    "ShardWalkError",
]

#: Default halo width (ranks replicated past each shard boundary).  Walk
#: lengths are patience-bounded in practice (patience=8 dry probes); 512
#: ranks of slack keeps the guard from firing on any realistic workload
#: while holding per-shard replication to a sliver of the ring.
DEFAULT_HALO = 512


class ShardConfigError(ValueError):
    """The system configuration cannot be sharded exactly."""


class ShardCapacityError(RuntimeError):
    """A batch would overflow some node: displacement chains are global
    mutations the shard-local engines cannot replay exactly."""


class ShardWalkError(RuntimeError):
    """A retrieve walk left the shard's halo — results could be missing
    items replicated elsewhere, so the run refuses to answer."""


class ShardSpec:
    """Geometry of the ring partition: who owns which full-ring rank.

    The ``n_ring`` membership ranks (node key order) are cut into
    ``n_shards`` contiguous ranges after rotating by ``offset`` — a
    nonzero offset places one shard astride rank 0 (two rank intervals
    in true rank space), the wrap-around case the twin tests pin.  The
    *interest window* of a shard is its owned intervals dilated by
    ``halo`` ranks each side, clipped to the ring ends (walks are linear
    in key space and never wrap, so neither does the window).
    """

    __slots__ = ("n_shards", "n_ring", "halo", "offset", "_bounds")

    def __init__(self, n_shards: int, n_ring: int, *, halo: int = DEFAULT_HALO, offset: int = 0) -> None:
        if n_shards < 1:
            raise ShardConfigError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > n_ring:
            raise ShardConfigError(
                f"n_shards {n_shards} exceeds ring size {n_ring}"
            )
        if halo < 0:
            raise ShardConfigError(f"halo must be >= 0, got {halo}")
        self.n_shards = n_shards
        self.n_ring = n_ring
        self.halo = halo
        self.offset = offset % n_ring
        # Balanced cut points in rotated rank space.
        self._bounds = [i * n_ring // n_shards for i in range(n_shards + 1)]

    def owner_of_ranks(self, ranks: np.ndarray) -> np.ndarray:
        """Owning shard of each full-ring rank, vectorised."""
        rot = (np.asarray(ranks, dtype=np.int64) - self.offset) % self.n_ring
        return np.searchsorted(np.asarray(self._bounds[1:], dtype=np.int64), rot, side="right")

    def owned_intervals(self, shard: int) -> list[tuple[int, int]]:
        """Owned true-rank half-open intervals (two when wrapping rank 0)."""
        lo, hi = self._bounds[shard], self._bounds[shard + 1]
        a, b = (lo + self.offset) % self.n_ring, (hi + self.offset) % self.n_ring
        if a < b:
            return [(a, b)]
        # Wraps past the top of the ring.
        out = []
        if a < self.n_ring:
            out.append((a, self.n_ring))
        if b > 0:
            out.append((0, b))
        return out

    def interest_intervals(self, shard: int) -> list[tuple[int, int]]:
        """Owned intervals dilated by the halo, clipped to [0, n_ring)."""
        out = []
        for a, b in self.owned_intervals(shard):
            out.append((max(0, a - self.halo), min(self.n_ring, b + self.halo)))
        return out

    def interest_mask(self, shard: int, ranks: np.ndarray) -> np.ndarray:
        """Boolean mask: which ranks fall in the shard's interest window."""
        ranks = np.asarray(ranks, dtype=np.int64)
        mask = np.zeros(ranks.shape, dtype=bool)
        for a, b in self.interest_intervals(shard):
            mask |= (ranks >= a) & (ranks < b)
        return mask


def _csr_take(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select CSR rows into a compact (indptr, indices, data) payload."""
    counts = indptr[rows + 1] - indptr[rows]
    sub_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    sub_idx = np.empty(int(sub_indptr[-1]), dtype=np.int64)
    sub_data = np.empty(int(sub_indptr[-1]), dtype=np.float64)
    for j, r in enumerate(rows.tolist()):
        a, b = indptr[r], indptr[r + 1]
        o, p = sub_indptr[j], sub_indptr[j + 1]
        sub_idx[o:p] = indices[a:b]
        sub_data[o:p] = data[a:b]
    return sub_indptr, sub_idx, sub_data


class ShardWorker:
    """One shard's execution context.

    Holds a full-membership system replica whose item state is filled
    only for the shard's interest window; executes the per-tick publish
    and retrieve payloads through the existing batch engines and cuts a
    stamped sink delta per operation.
    """

    def __init__(self, shard_id: int, system: "Meteorograph", spec: ShardSpec) -> None:
        self.shard_id = shard_id
        self.system = system
        self.spec = spec
        self.sink = MetricSink(source=f"shard-{shard_id}")
        system.network.sink = self.sink
        #: Upper bound on dead nodes a walk may have skipped (skips do
        #: not count toward walk_hops, so they widen the rank window).
        self._dead = 0

    # -- tick operations ---------------------------------------------------

    def apply_publish(self, payload: dict) -> SinkDelta:
        """Store this shard's slice of the planned batch; bill its sweep
        segment.  The slice goes through the same
        :func:`repro.core.publish.store_runs` as the displacement-free
        branch of ``batch_publish``."""
        system = self.system
        ids = payload["item_ids"]
        pks = payload["publish_keys"]
        n = int(ids.size)
        with self.sink.time("shard.publish"):
            if n:
                aks = payload["angle_keys"]
                indptr = payload["indptr"]
                kw = payload["kw_ids"]
                wts = payload["weights"]
                ids_l = ids.tolist()
                pk_l = pks.tolist()
                ak_l = aks.tolist()
                items = [
                    StoredItem(
                        item_id=ids_l[i],
                        publish_key=pk_l[i],
                        angle_key=ak_l[i],
                        keyword_ids=kw[indptr[i] : indptr[i + 1]],
                        weights=wts[indptr[i] : indptr[i + 1]],
                    )
                    for i in range(n)
                ]
                store_runs(
                    system,
                    items,
                    payload["homes"],
                    np.argsort(pks, kind="stable"),
                    payload["norms"],
                )
                system.register_published_many(ids, aks, pks)
            sweep_dsts = payload["sweep_dsts"]
            system.network.charge_bulk("publish", int(sweep_dsts.size), sweep_dsts)
        self.sink.observe("shard.publish.items", n)
        self.sink.observe("shard.publish.sweep_steps", int(sweep_dsts.size))
        return self.sink.checkpoint()

    def apply_retrieve(self, payload: dict) -> tuple[list, SinkDelta]:
        """Run this shard's retrieve slice through the unmodified batch
        engine, then guard the halo invariant post-hoc."""
        system = self.system
        indptr = payload["indptr"]
        kw = payload["kw_ids"]
        wts = payload["weights"]
        dim = payload["dim"]
        origins = payload["origins"].tolist()
        start_keys = payload["start_keys"].tolist()
        queries = [
            SparseVector(kw[indptr[i] : indptr[i + 1]], wts[indptr[i] : indptr[i + 1]], dim)
            for i in range(len(origins))
        ]
        with self.sink.time("shard.retrieve"):
            results = _core_retrieve_many(
                system,
                origins,
                queries,
                payload["amount"],
                start_keys=start_keys,
                **payload["knobs"],
            )
        worst = max((r.walk_hops for r in results), default=0)
        # walk_hops counts live visits only; each dead node skipped
        # consumed one more outward rank, so the reachable rank window is
        # walk_hops + (dead nodes) wide in the worst case.
        if worst + self._dead > self.spec.halo:
            raise ShardWalkError(
                f"shard {self.shard_id}: walk of {worst} hops (+{self._dead} "
                f"dead-node slack) exceeds halo {self.spec.halo}; rerun with "
                "a wider halo or fewer shards"
            )
        self.sink.observe("shard.retrieve.queries", len(queries))
        self.sink.observe("shard.retrieve.walk_worst", worst)
        return results, self.sink.checkpoint()

    def apply_fail(self, node_ids: list) -> None:
        """Apply a liveness change broadcast (no messages billed)."""
        self.system.network.fail_nodes(node_ids)
        self._dead += len(node_ids)


class ShardedSimulator:
    """Coordinator of a ring-sharded run (see module docstring).

    ``builder`` is a zero-argument callable returning a freshly built
    :class:`Meteorograph`; it must be deterministic (same seed → same
    system), which is what makes every replica's membership identical.
    """

    def __init__(
        self,
        builder: Callable[[], "Meteorograph"],
        *,
        n_shards: int,
        halo: int = DEFAULT_HALO,
        offset: int = 0,
    ) -> None:
        control = builder()
        _validate_shardable(control)
        self.control = control
        self.sink = control.network.sink
        self.sink.source = "coordinator"
        self.ring_array = control.overlay.ring.as_array()
        self.spec = ShardSpec(n_shards, int(self.ring_array.size), halo=halo, offset=offset)
        self.clock = TickClock()
        # Global per-rank load/capacity ledger for the displacement-free
        # prepass (the control replica stores no items itself).
        self._loads = np.zeros(self.ring_array.size, dtype=np.int64)
        self._caps = np.fromiter(
            (
                -1 if (c := control.network.node(int(nid)).capacity) is None else c
                for nid in self.ring_array
            ),
            dtype=np.int64,
            count=self.ring_array.size,
        )
        self._key_memo: dict[tuple, int] = {}
        self._workers: list[ShardWorker] = []
        for s in range(n_shards):
            replica = builder()
            _validate_shardable(replica)
            self._workers.append(ShardWorker(s, replica, self.spec))

    # -- operations --------------------------------------------------------

    def publish_corpus(
        self,
        corpus: "Corpus",
        rng: np.random.Generator,
        *,
        item_ids: Optional[Sequence[int]] = None,
        origin: Optional[int] = None,
    ) -> list[PublishResult]:
        """Publish every corpus row — one tick.

        The coordinator plans globally (keys, sweep, capacity prepass,
        per-item marginal route hops — all with the shared
        :class:`SweepPlan` code), ships each shard its interest slice,
        and synthesizes the :class:`PublishResult` list from the plan.
        Identical placements and bill to
        ``Meteorograph.publish_corpus(batch=True)`` at matched seed.
        """
        control = self.control
        angle_keys, key_mat = control.corpus_keys_multi(corpus)
        publish_keys = np.ascontiguousarray(key_mat[:, 0])
        n = corpus.n_items
        ids = (
            np.arange(n, dtype=np.int64)
            if item_ids is None
            else np.asarray(item_ids, dtype=np.int64)
        )
        if ids.shape[0] != n:
            raise ValueError("item_ids must parallel the corpus")
        alive = [nid for nid in control.overlay.ring if control.network.is_alive(nid)]
        if not alive:
            raise RuntimeError("no live nodes to publish from")
        # Same origin draw as the single-process facade (RNG parity).
        src = origin if origin is not None else alive[int(rng.integers(0, len(alive)))]
        plan = SweepPlan(control, publish_keys)
        route = control.deliver_home(src, plan.first_key, kind="publish")
        assert route.home is not None
        plan.finalize(route.home)
        live_ranks = np.searchsorted(self.ring_array, plan.live_sorted)
        caps = self._caps[live_ranks]
        arrivals = plan.arrivals()
        if not bool(np.all(caps < 0)):
            loads = self._loads[live_ranks]
            if not bool(np.all((caps < 0) | (loads + arrivals <= caps))):
                raise ShardCapacityError(
                    "batch would overflow a node: displacement chains are "
                    "not shardable (raise capacities or publish smaller "
                    "batches)"
                )
        np.add.at(self._loads, live_ranks, arrivals)
        home_ranks = np.searchsorted(self.ring_array, plan.homes)
        sweep_src_ranks = np.searchsorted(self.ring_array, plan.sweep_sources())
        sweep_dst = plan.live_sorted[
            (plan.start_pos + 1 + np.arange(plan.sweep, dtype=np.int64)) % plan.m
        ]
        sweep_owner = self.spec.owner_of_ranks(sweep_src_ranks)
        mat = corpus.matrix
        indptr = np.asarray(mat.indptr, dtype=np.int64)
        kw_ids = mat.indices.astype(np.int64)
        weights = np.asarray(mat.data, dtype=np.float64)
        norms = corpus.norms()
        for s, worker in enumerate(self._workers):
            rows = np.nonzero(self.spec.interest_mask(s, home_ranks))[0]
            dsts = sweep_dst[sweep_owner == s]
            if rows.size == 0 and dsts.size == 0:
                continue
            sub_indptr, sub_idx, sub_data = _csr_take(indptr, kw_ids, weights, rows)
            delta = worker.apply_publish(
                {
                    "item_ids": ids[rows],
                    "publish_keys": publish_keys[rows],
                    "angle_keys": angle_keys[rows],
                    "homes": plan.homes[rows],
                    "norms": norms[rows],
                    "indptr": sub_indptr,
                    "kw_ids": sub_idx,
                    "weights": sub_data,
                    "sweep_dsts": dsts,
                }
            )
            self.sink.merge(delta)
        control.register_published_many(ids, angle_keys, publish_keys)
        route_hops = plan.route_hops.tolist()
        route_hops[int(plan.order[0])] += route.hops
        ids_l = ids.tolist()
        homes_l = plan.homes.tolist()
        results = [
            PublishResult(item_id=ids_l[k], home=homes_l[k], route_hops=route_hops[k])
            for k in range(n)
        ]
        self.clock.advance()
        return results

    def retrieve_many(
        self,
        origin,
        queries: Sequence[SparseVector],
        amount: Optional[int],
        **knobs,
    ) -> list["RetrieveResult"]:
        """Batch similarity search — one tick.

        Queries are partitioned by the shard owning each query's live
        home; each shard runs its slice through the unmodified batch
        engine with coordinator-computed start keys (the same values the
        single-process engine memoises internally), so groups, routes,
        walks and the replay bill are identical.
        """
        unsupported = set(knobs) - {
            "require_all", "min_score", "patience", "max_walk", "direction"
        }
        if unsupported:
            raise ShardConfigError(
                f"sharded retrieve does not accept {sorted(unsupported)}"
            )
        queries = list(queries)
        if isinstance(origin, (int, np.integer)):
            origins = [int(origin)] * len(queries)
        else:
            origins = [int(o) for o in origin]
            if len(origins) != len(queries):
                raise ValueError(f"{len(origins)} origins for {len(queries)} queries")
        if not queries:
            return []
        control = self.control
        keys = np.empty(len(queries), dtype=np.int64)
        for i, q in enumerate(queries):
            content = (q.indices.tobytes(), q.values.tobytes())
            key = self._key_memo.get(content)
            if key is None:
                key = self._key_memo[content] = control.query_key(q)
            keys[i] = key
        home_cache: dict[int, int] = {}
        home_ranks = np.empty(len(queries), dtype=np.int64)
        for i, key in enumerate(keys.tolist()):
            rank = home_cache.get(key)
            if rank is None:
                home = control.overlay.live_home(key)
                if home is None:
                    raise RuntimeError("no live nodes to retrieve from")
                rank = home_cache[key] = int(
                    np.searchsorted(self.ring_array, home)
                )
            home_ranks[i] = rank
        owner = self.spec.owner_of_ranks(home_ranks)
        origins_arr = np.asarray(origins, dtype=np.int64)
        dim = queries[0].dim
        results: list[Optional["RetrieveResult"]] = [None] * len(queries)
        for s in np.unique(owner).tolist():
            rows = np.nonzero(owner == s)[0]
            q_indptr = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum([queries[i].indices.size for i in rows.tolist()], out=q_indptr[1:])
            kw_ids = np.concatenate(
                [queries[i].indices for i in rows.tolist()]
            ) if rows.size else np.empty(0, dtype=np.int64)
            weights = np.concatenate(
                [queries[i].values for i in rows.tolist()]
            ) if rows.size else np.empty(0, dtype=np.float64)
            sub_results, delta = self._workers[s].apply_retrieve(
                {
                    "origins": origins_arr[rows],
                    "start_keys": keys[rows],
                    "indptr": q_indptr,
                    "kw_ids": kw_ids,
                    "weights": weights,
                    "dim": dim,
                    "amount": amount,
                    "knobs": knobs,
                }
            )
            for i, res in zip(rows.tolist(), sub_results):
                results[i] = res
            self.sink.merge(delta)
        self.clock.advance()
        return results  # type: ignore[return-value]

    def fail_nodes(self, node_ids: Sequence[int]) -> None:
        """Broadcast a liveness change to every replica — one tick."""
        ids = [int(i) for i in node_ids]
        self.control.network.fail_nodes(ids)
        for worker in self._workers:
            worker.apply_fail(ids)
        self.clock.advance()

    # -- inspection --------------------------------------------------------

    def loads(self) -> np.ndarray:
        """Per-node stored item counts in node key order (the global
        ledger the capacity prepass maintains; matches
        ``Meteorograph.loads()`` of the single-process twin)."""
        return self._loads.copy()


def _validate_shardable(system: "Meteorograph") -> None:
    cfg = system.config
    problems = []
    if cfg.directory_pointers:
        problems.append("directory pointers")
    if system.replication is not None:
        problems.append("replication")
    if cfg.retry_policy is not None:
        problems.append("retry policy")
    if system.network.admission is not None:
        problems.append("admission control")
    if system.network.link_faults is not None:
        problems.append("link faults")
    if cfg.protocol_joins:
        problems.append("protocol joins")
    if system.naming.n_keys != 1:
        problems.append("multi-key naming")
    if system.network.obs.enabled:
        problems.append("observability (per-replica registries cannot merge exactly)")
    if problems:
        raise ShardConfigError(
            "configuration cannot be sharded exactly: " + ", ".join(problems)
        )
