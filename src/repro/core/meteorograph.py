"""The Meteorograph system facade.

Wires the paper's pieces into one object:

* an overlay (Tornado-like by default, Chord optionally) over a 1-D key
  space, populated by the §3.4.2 naming protocol;
* the Eq. 5 angle naming plus, per the configured placement scheme, the
  Eq. 6 CDF equalizer ("Unused Hash Space") and hot-region node naming
  ("+ Hot Regions") fitted from a sampled corpus;
* per-node local VSM indexes and the angle ladder used by the
  displacement policy;
* publish / retrieve / find / top-k entry points delegating to
  :mod:`repro.core.publish` and :mod:`repro.core.search`;
* optional directory pointers (§3.5.2), first-hop selection (§3.5.1)
  and replication (§3.6).

The three placement schemes are exactly the paper's evaluation legend:
``NONE``, ``UNUSED_HASH`` ("Unused Hash Space") and
``UNUSED_HASH_HOT`` ("Unused Hash Space + Hot Regions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal, Optional, Sequence

import numpy as np

from ..obs import NULL_OBS, Observability, SimProfiler
from ..overlay.base import Overlay
from ..overlay.chord import ChordOverlay
from ..overlay.idspace import KeySpace
from ..overlay.membership import Bootstrap
from ..overlay.tornado import TornadoOverlay
from ..sim.engine import Simulator
from ..sim.metrics import MetricSink
from ..sim.network import Network
from ..sim.node import StoredItem
from ..vsm.index import LocalVsmIndex
from ..vsm.sparse import Corpus, SparseVector
from .angles import DEFAULT_CHUNK_ROWS, absolute_angle_from_arrays
from .directory import publish_pointer as _publish_pointer
from .firsthop import FirstHopSelector
from .knees import equalizer_from_sample
from .loadbalance import HotRegionNamer, detect_hot_regions, uniform_namer
from .naming import CdfEqualizer, angle_to_key, corpus_to_keys
from .publish import PublishResult, ReplacementPolicy, batch_publish, publish_item
from .replication import ReplicationManager
from .search import (
    Discovery,
    FindResult,
    RetrieveResult,
    find_item,
    retrieve,
    retrieve_with_pointers,
)
from .search_batch import retrieve_many

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..maint.retry import RetryPolicy
    from ..overlay.base import RouteResult
    from ..overload.admission import OverloadPolicy

__all__ = ["PlacementScheme", "MeteorographConfig", "NodeState", "Meteorograph"]


class PlacementScheme(enum.Enum):
    """The paper's three evaluated configurations (Figs. 7–9)."""

    NONE = "none"
    UNUSED_HASH = "unused-hash"
    UNUSED_HASH_HOT = "unused-hash+hot-regions"

    @property
    def uses_equalizer(self) -> bool:
        return self is not PlacementScheme.NONE

    @property
    def uses_hot_regions(self) -> bool:
        return self is PlacementScheme.UNUSED_HASH_HOT


@dataclass(frozen=True)
class MeteorographConfig:
    """Build-time configuration; every knob defaults to the paper's setup."""

    scheme: PlacementScheme = PlacementScheme.UNUSED_HASH_HOT
    #: Per-node item capacity; None = infinite (Figs. 7–8).  Fig. 9/10 use 8·c.
    node_capacity: Optional[int] = None
    #: Copies per item (1 = no replication).  §4.3 sweeps {1, 2, 4, 8}.
    replication_factor: int = 1
    directory_pointers: bool = False
    #: Max displacement-chain hops per publish; None = infinite (§4: "the
    #: hop count of each publishing is infinite").
    hop_budget: Optional[int] = None
    replacement_policy: ReplacementPolicy = ReplacementPolicy.ANGLE
    overlay_kind: Literal["tornado", "chord"] = "tornado"
    digit_bits: int = 2
    leaf_set_size: int = 4
    #: Knee budget for the Eq. 6 fit (the paper hand-picked 5).
    max_remap_knees: int = 8
    hot_region_bins: int = 128
    hot_region_threshold: float = 1.5
    hot_region_max_subknees: int = 12
    #: True routes every join through the bootstrap protocol (charges
    #: join messages); False inserts nodes directly — faster builds for
    #: experiments that only measure query costs.
    protocol_joins: bool = False
    #: Observability: False (default) = the zero-cost no-op sinks; True
    #: = a fresh :class:`repro.obs.Observability` (trace bus + metrics
    #: registry) per build; or pass an ``Observability`` instance to
    #: share one bus across systems.  See OBSERVABILITY.md.
    observability: "bool | Observability" = False
    #: Fault-tolerant home delivery: when set, every publish/retrieve
    #: route goes through :func:`repro.maint.route_with_retry` (bounded
    #: exponential backoff, deterministic jitter, nearest-live-neighbor
    #: degradation).  None (default) = plain single-attempt routing.
    retry_policy: Optional["RetryPolicy"] = None
    #: Overload protection: when set, :meth:`Meteorograph.build` attaches
    #: an :class:`repro.overload.AdmissionController` to the fabric —
    #: every send meters the destination's inbox (token-bucket service
    #: model), saturated homes shed publish/retrieve load with
    #: back-pressure, per-destination circuit breakers stop the
    #: hammering, and shed deliveries divert to key neighbors (see
    #: :mod:`repro.overload` and DESIGN.md, "Overload protection").
    #: None (default) = no admission control, zero hot-path cost.
    overload_policy: Optional["OverloadPolicy"] = None
    #: Naming family (DESIGN.md, "Naming schemes").  ``"absolute-angle"``
    #: is the paper's Eq. 1–5 (+ Eq. 6 per placement scheme) path —
    #: bit-identical to the pre-seam code.  ``"cosine-lsh"`` switches to
    #: :class:`repro.lsh.CosineLshScheme`: L band keys per item
    #: (storage budget = L×) and multi-probe retrieval; it requires
    #: ``scheme=NONE`` (the Eq. 6 remap would scramble band regions),
    #: no directory pointers, and no replication (the L band copies ARE
    #: the redundancy budget).
    naming_scheme: Literal["absolute-angle", "cosine-lsh"] = "absolute-angle"
    #: L — bands (publish keys per item) for ``cosine-lsh``.
    lsh_bands: int = 4
    #: k — hyperplanes (signature bits) per band.
    lsh_band_bits: int = 8
    #: Hyperplane seed (deterministic across processes).
    lsh_seed: int = 0
    #: Ring-adjacent buckets probed per band on retrieve, on top of the
    #: band's home bucket (NearBucket walk width).
    lsh_probe_width: int = 2


class NodeState:
    """Meteorograph-side state for one node — a thin view over the
    columnar :class:`LocalVsmIndex`, which owns both the inverted index
    and the sorted (angle key, item id) ladder as a cached sorted view
    of its angle-key column."""

    __slots__ = ("index",)

    def __init__(self, dim: int) -> None:
        self.index = LocalVsmIndex(dim)

    def add(self, item: StoredItem) -> None:
        # Re-adding an id the state already tracks (e.g. a displaced
        # primary landing on a node that holds its replica) replaces the
        # old copy — the index's replacement semantics keep the ladder
        # free of dangling entries.
        self.index.add(item)

    def add_many(
        self,
        items: Sequence[StoredItem],
        norms: Optional[Sequence[float]] = None,
    ) -> None:
        """Bulk :meth:`add`: one columnar block append.

        Equivalent to adding the items one at a time in list order.
        ``norms`` optionally parallels ``items`` with precomputed
        Euclidean norms (see ``LocalVsmIndex.add_many``)."""
        self.index.add_many(items, norms)

    def remove(self, item_id: int) -> StoredItem:
        return self.index.remove(item_id)

    def remove_many(self, item_ids: Sequence[int]) -> list[StoredItem]:
        """Bulk :meth:`remove`; duplicate ids are removed once, and an
        unknown id raises ``KeyError`` before anything is mutated.  Used
        by the cascade reconcile, where a node may shed a large slice of
        its ladder in one event."""
        return self.index.remove_many(item_ids)

    def snapshot(self) -> tuple[list[tuple[int, int]], dict[int, StoredItem]]:
        """(ladder copy, id → item copy) for shadow-state seeding.

        The copies are independent of this state: the cascade engine
        mutates them freely and reconciles net diffs back through
        :meth:`remove_many` / :meth:`add_many`."""
        return list(self.index.angle_ladder()), self.index.items_by_id()

    def min_angle_item(self) -> Optional[StoredItem]:
        ladder = self.index.angle_ladder()
        if not ladder:
            return None
        return self.index.item(ladder[0][1])

    def max_angle_item(self) -> Optional[StoredItem]:
        ladder = self.index.angle_ladder()
        if not ladder:
            return None
        return self.index.item(ladder[-1][1])


class Meteorograph:
    """A built, populated-or-populatable Meteorograph deployment."""

    def __init__(
        self,
        *,
        space: KeySpace,
        network: Network,
        overlay: Overlay,
        dim: int,
        config: MeteorographConfig,
        equalizer: Optional[CdfEqualizer],
        bootstrap: Optional[Bootstrap] = None,
        first_hop: Optional[FirstHopSelector] = None,
    ) -> None:
        self.space = space
        self.network = network
        self.overlay = overlay
        self.dim = dim
        self.config = config
        self.equalizer = equalizer
        self.bootstrap = bootstrap
        self.first_hop = first_hop
        self._states: dict[int, NodeState] = {}
        #: item id → (angle key, publish key) for everything published.
        #: Multi-key schemes record the band-0 publish key (the
        #: canonical copy ``find`` routes to).
        self._published: dict[int, tuple[int, int]] = {}
        #: The naming seam: every key this facade hands out comes from
        #: here (see :mod:`repro.lsh.scheme`).  Imported lazily so the
        #: ``repro.core`` import graph stays acyclic.
        if config.naming_scheme == "cosine-lsh":
            if config.scheme is not PlacementScheme.NONE:
                raise ValueError(
                    "cosine-lsh requires scheme=NONE: the Eq. 6 remap "
                    "would scramble the disjoint band regions"
                )
            if config.directory_pointers:
                raise ValueError("cosine-lsh does not support directory pointers")
            if config.replication_factor > 1:
                raise ValueError(
                    "cosine-lsh does not compose with replication: the L "
                    "band copies are the redundancy budget"
                )
            from ..lsh.bands import CosineLshScheme

            self.naming = CosineLshScheme(
                space,
                dim,
                bands=config.lsh_bands,
                band_bits=config.lsh_band_bits,
                seed=config.lsh_seed,
                metrics=network.obs.metrics,
            )
        elif config.naming_scheme == "absolute-angle":
            from ..lsh.scheme import AbsoluteAngleScheme

            self.naming = AbsoluteAngleScheme(
                space, dim, equalizer=equalizer, metrics=network.obs.metrics
            )
        else:
            raise ValueError(f"unknown naming scheme {config.naming_scheme!r}")
        self.replication: Optional[ReplicationManager] = (
            ReplicationManager(self, config.replication_factor)
            if config.replication_factor > 1
            else None
        )
        #: Optional §6 notification service; set via
        #: ``NotificationService(system).attach()``.
        self.notifications = None
        #: Filled by :meth:`build` when ``protocol_joins`` is on.
        self.join_stats: dict[str, int] = {"messages": 0, "retries": 0}

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        n_nodes: int,
        dim: int,
        *,
        rng: np.random.Generator,
        config: Optional[MeteorographConfig] = None,
        sample: Optional[Corpus] = None,
        space: Optional[KeySpace] = None,
        simulator: Optional[Simulator] = None,
        sink: Optional[MetricSink] = None,
        capacity_fn=None,
    ) -> "Meteorograph":
        """Stand up an ``n_nodes`` overlay ready for publishing.

        ``sample`` is the §3.4 sampled data set (e.g. 0.5% of the corpus)
        used to fit the Eq. 6 equalizer, detect hot regions, and power
        first-hop selection; it is mandatory for every scheme except
        ``NONE``.

        ``capacity_fn(rng) -> Optional[int]`` assigns *per-node*
        capacities — Tornado's capability-aware heterogeneity, where
        strong peers contribute much more storage than weak ones.  When
        omitted, every node gets ``config.node_capacity``.
        """
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        cfg = config if config is not None else MeteorographConfig()
        sp = space if space is not None else KeySpace()
        if isinstance(cfg.observability, Observability):
            obs = cfg.observability
        elif cfg.observability:
            obs = Observability()
        else:
            obs = NULL_OBS
        if obs.enabled and simulator is not None and simulator.profiler is None:
            SimProfiler(obs.metrics).attach(simulator)
        network = Network(sink=sink, simulator=simulator, obs=obs)
        if cfg.overload_policy is not None:
            from ..overload.admission import AdmissionController

            network.attach_admission(AdmissionController(cfg.overload_policy, obs=obs))
        if cfg.overlay_kind == "tornado":
            overlay: Overlay = TornadoOverlay(
                sp, network, digit_bits=cfg.digit_bits, leaf_set_size=cfg.leaf_set_size
            )
        elif cfg.overlay_kind == "chord":
            overlay = ChordOverlay(sp, network, successor_list_size=cfg.leaf_set_size * 2)
        else:
            raise ValueError(f"unknown overlay kind {cfg.overlay_kind!r}")

        equalizer: Optional[CdfEqualizer] = None
        namer = uniform_namer(sp)
        first_hop: Optional[FirstHopSelector] = None
        if cfg.scheme.uses_equalizer:
            if sample is None:
                raise ValueError(f"scheme {cfg.scheme} requires a sample corpus")
            with obs.metrics.timer("kernel.angles"):
                angle_keys = corpus_to_keys(sample, sp)
            with obs.metrics.timer("kernel.equalizer_fit"):
                equalizer = equalizer_from_sample(
                    angle_keys, sp, max_knees=cfg.max_remap_knees
                )
            with obs.metrics.timer("kernel.remap"):
                balanced = equalizer.remap_many(angle_keys)
            if cfg.scheme.uses_hot_regions:
                with obs.metrics.timer("kernel.hot_regions"):
                    regions = detect_hot_regions(
                        balanced,
                        sp,
                        bins=cfg.hot_region_bins,
                        threshold=cfg.hot_region_threshold,
                        max_subknees=cfg.hot_region_max_subknees,
                    )
                if regions:
                    namer = HotRegionNamer(sp, regions, obs=obs if obs.enabled else None)
            first_hop = FirstHopSelector(sample, balanced, angle_keys)
        elif sample is not None:
            angle_keys = corpus_to_keys(sample, sp)
            first_hop = FirstHopSelector(sample, angle_keys, angle_keys)

        system = cls(
            space=sp,
            network=network,
            overlay=overlay,
            dim=dim,
            config=cfg,
            equalizer=equalizer,
            first_hop=first_hop,
        )
        bootstrap = Bootstrap(
            overlay,
            naming_info={"equalizer": equalizer},
            sample_set=sample,
        )
        system.bootstrap = bootstrap
        def capacity_of() -> Optional[int]:
            return cfg.node_capacity if capacity_fn is None else capacity_fn(rng)

        seed_id = namer(rng)
        bootstrap.seed(seed_id, capacity=capacity_of())
        join_messages = 0
        join_retries = 0
        if cfg.protocol_joins:
            for _ in range(n_nodes - 1):
                jr = bootstrap.join(namer, rng, capacity=capacity_of())
                join_messages += jr.join_messages
                join_retries += jr.retries
        else:
            # Bulk fast path: identical RNG draw order to per-node
            # add_node (draw id, redraw on collision, then capacity) but
            # membership lands in one sorted merge — O(n log n) instead
            # of O(n²) ring inserts, which is what makes 10⁵-node builds
            # routine.
            pending: list[tuple[int, Optional[int]]] = []
            seen: set[int] = {seed_id}
            for _ in range(n_nodes - 1):
                node_id = namer(rng)
                while node_id in seen:
                    node_id = namer(rng)
                seen.add(node_id)
                pending.append((node_id, capacity_of()))
            overlay.add_nodes(pending)
        system.join_stats = {"messages": join_messages, "retries": join_retries}
        if obs.enabled:
            obs.metrics.gauge("build.nodes", n_nodes)
            obs.metrics.gauge("build.dim", dim)
        return system

    # ---------------------------------------------------------------- obs

    @property
    def obs(self) -> Observability:
        """The system's observability bundle (the no-op one when disabled)."""
        return self.network.obs

    # ------------------------------------------------------------------- keys

    def item_keys(self, keyword_ids: np.ndarray, weights: np.ndarray) -> tuple[int, int]:
        """(angle key, primary publish key) of one item vector.

        Multi-key schemes publish to :meth:`item_keys_all`'s full list;
        this keeps the historical single-key view (band 0).
        """
        angle_key, publish_keys = self.naming.keys_for(keyword_ids, weights)
        return angle_key, publish_keys[0]

    def item_keys_all(
        self, keyword_ids: np.ndarray, weights: np.ndarray
    ) -> tuple[int, list[int]]:
        """(angle key, all ``naming.n_keys`` publish keys) of one item."""
        return self.naming.keys_for(keyword_ids, weights)

    def corpus_keys(
        self, corpus: Corpus, *, chunk_rows: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`item_keys` over a corpus (primary keys only;
        see :meth:`corpus_keys_multi` for the full key matrix).

        Corpora larger than :data:`repro.core.angles.DEFAULT_CHUNK_ROWS`
        rows stream the angle pass in chunks automatically (bounded
        temporaries, bit-identical keys); pass ``chunk_rows`` to pin a
        chunk size (or a value ≥ the corpus to force the whole-corpus
        pass).
        """
        angle_keys, key_mat = self.corpus_keys_multi(corpus, chunk_rows=chunk_rows)
        return angle_keys, key_mat[:, 0]

    def corpus_keys_multi(
        self, corpus: Corpus, *, chunk_rows: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(angle keys ``(n,)``, publish keys ``(n, naming.n_keys)``) —
        the scheme's full fan-out, chunk-streamed like :meth:`corpus_keys`."""
        if corpus.dim != self.dim:
            raise ValueError(f"corpus dim {corpus.dim} != system dim {self.dim}")
        if chunk_rows is None and corpus.n_items > DEFAULT_CHUNK_ROWS:
            chunk_rows = DEFAULT_CHUNK_ROWS
        return self.naming.corpus_to_keys(corpus, chunk_rows=chunk_rows)

    def query_angle_key(self, query: SparseVector) -> int:
        """Eq. 5 key of a query vector."""
        theta = absolute_angle_from_arrays(query.values, self.dim)
        return angle_to_key(theta, self.space)

    def query_key(self, query: SparseVector) -> int:
        """The query's primary key in publish space (the first probe key;
        multi-key schemes probe ``naming.probe_keys_for`` in full)."""
        return self.naming.probe_keys_for(query)[0]

    # -------------------------------------------------------------- node state

    def state(self, node_id: int) -> NodeState:
        st = self._states.get(node_id)
        if st is None:
            st = NodeState(self.dim)
            self._states[node_id] = st
        return st

    def store_at(self, node_id: int, item: StoredItem) -> None:
        """Store an item on a node, keeping node storage and index in sync."""
        self.network.node(node_id).store(item)
        self.state(node_id).add(item)
        if self.notifications is not None and not item.is_replica:
            self.notifications.on_stored(node_id, item)

    def store_run(
        self,
        node_id: int,
        items: Sequence[StoredItem],
        norms: Optional[Sequence[float]] = None,
    ) -> None:
        """Bulk :meth:`store_at`: a run of items landing on one node.

        Semantically identical to calling ``store_at`` per item; used by
        the displacement-free branch of batch publish, where the ring
        sweep drops each node's whole run off in one message.  ``norms``
        optionally parallels ``items`` (see ``NodeState.add_many``)."""
        self.network.node(node_id).store_many(items)
        self.state(node_id).add_many(items, norms)
        if self.notifications is not None:
            for item in items:
                if not item.is_replica:
                    self.notifications.on_stored(node_id, item)

    def evict_from(self, node_id: int, item_id: int) -> StoredItem:
        self.state(node_id).remove(item_id)
        return self.network.node(node_id).evict(item_id)

    def publish_pointer(self, origin: int, item: StoredItem) -> int:
        return _publish_pointer(self, origin, item)

    def deliver_home(self, origin: int, key: int, *, kind: str = "route") -> "RouteResult":
        """Route a message to the home of ``key``, fault-tolerantly.

        The single chokepoint every publish/retrieve/find route goes
        through.  Without a configured ``retry_policy`` this is exactly
        ``overlay.route``; with one, delivery retries with backoff and
        degrades to the nearest live key-neighbor (see
        :mod:`repro.maint.retry`).  With an admission controller
        attached, delivery additionally consults the destination's
        circuit breaker and may raise
        :class:`repro.overload.BackpressureError` — callers divert (see
        :mod:`repro.overload.degrade`).
        """
        if self.network.admission is not None:
            from ..overload.degrade import deliver_guarded

            return deliver_guarded(self, origin, key, kind=kind)
        if self.config.retry_policy is None:
            return self.overlay.route(origin, key, kind=kind)
        from ..maint.retry import route_with_retry

        return route_with_retry(self, origin, key, kind=kind)

    def register_published(self, item_id: int, angle_key: int, publish_key: int) -> None:
        self._published[item_id] = (angle_key, publish_key)

    def register_published_many(
        self, item_ids: np.ndarray, angle_keys: np.ndarray, publish_keys: np.ndarray
    ) -> None:
        """Vectorised :meth:`register_published` for whole-corpus publishes."""
        self._published.update(
            zip(item_ids.tolist(), zip(angle_keys.tolist(), publish_keys.tolist()))
        )

    def published_key_of(self, item_id: int) -> int:
        try:
            return self._published[item_id][1]
        except KeyError:
            raise KeyError(f"item {item_id} was never published") from None

    @property
    def published_count(self) -> int:
        return len(self._published)

    # --------------------------------------------------------------------- API

    def random_origin(self, rng: np.random.Generator) -> int:
        """A uniformly random live node id (query entry point)."""
        alive = [nid for nid in self.overlay.ring if self.network.is_alive(nid)]
        if not alive:
            raise RuntimeError("no live nodes")
        return alive[int(rng.integers(0, len(alive)))]

    def publish(
        self,
        origin: int,
        item_id: int,
        keyword_ids: Sequence[int] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        *,
        payload: object = None,
        hop_budget: Optional[int] = "config",  # type: ignore[assignment]
    ) -> PublishResult:
        """Publish one item from ``origin`` (Fig. 2 ``_publish``).

        Under a multi-key scheme the item is published once per band key
        (L routed copies — the explicit L× storage/message budget); the
        returned result is the band-0 publish.
        """
        budget = self.config.hop_budget if hop_budget == "config" else hop_budget
        kw = np.asarray(keyword_ids, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        angle_key, publish_keys = self.naming.keys_for(kw, w)
        result: Optional[PublishResult] = None
        for pk in publish_keys:
            res = publish_item(
                self,
                origin,
                item_id,
                kw,
                w,
                payload=payload,
                hop_budget=budget,
                policy=self.config.replacement_policy,
                precomputed_keys=(angle_key, int(pk)),
            )
            if result is None:
                result = res
        if len(publish_keys) > 1:
            metrics = self.network.obs.metrics
            metrics.counter("lsh.publish.items", 1)
            metrics.counter("lsh.publish.copies", len(publish_keys))
        self.register_published(item_id, angle_key, int(publish_keys[0]))
        return result

    def publish_vector(
        self, origin: int, item_id: int, vector: SparseVector, **kwargs
    ) -> PublishResult:
        return self.publish(origin, item_id, vector.indices, vector.values, **kwargs)

    def publish_corpus(
        self,
        corpus: Corpus,
        rng: np.random.Generator,
        *,
        item_ids: Optional[Sequence[int]] = None,
        origin: Optional[int] = None,
        batch: Optional[bool] = None,
        cascade: Optional[bool] = None,
        chunk_rows: Optional[int] = None,
    ) -> list[PublishResult]:
        """Publish every corpus row (keys batch-computed, vectorised).

        ``batch=None`` (auto, the default) takes the single-sweep fast
        path — :func:`repro.core.publish.batch_publish` — whenever the
        configuration allows it: no directory pointers and no
        replication, both of which need the per-item protocol (the
        items then count under ``publish.batch.fallback.<reason>``).
        ``batch=False`` forces the sequential per-item loop (the
        reference semantics); ``batch=True`` asserts the fast path and
        raises if the configuration cannot take it.  Placements and
        displacement accounting are identical either way; route-message
        accounting differs by design (1 route + ring sweep instead of
        one route per item).

        In sequential mode each item is published from a uniformly
        random live node unless ``origin`` pins one; batch mode draws
        (or is pinned to) a single origin for its one route.
        ``item_ids`` renames rows (default: row index).

        ``cascade`` selects the finite-capacity placement engine (see
        :func:`repro.core.publish.batch_publish`); ``chunk_rows``
        streams the key pipeline (see :meth:`corpus_keys`).

        Under a multi-key scheme every row fans out to its L band keys
        — n·L placements through the same engines, with the L× budget
        surfaced on the ``lsh.publish.*`` counters.  The returned list
        still has one entry per row (the band-0 result).
        """
        angle_keys, key_mat = self.corpus_keys_multi(corpus, chunk_rows=chunk_rows)
        publish_keys = key_mat[:, 0]
        n_keys = self.naming.n_keys
        ids = (
            np.arange(corpus.n_items, dtype=np.int64)
            if item_ids is None
            else np.asarray(item_ids, dtype=np.int64)
        )
        if ids.shape[0] != corpus.n_items:
            raise ValueError("item_ids must parallel the corpus")
        alive = [nid for nid in self.overlay.ring if self.network.is_alive(nid)]
        if not alive:
            raise RuntimeError("no live nodes to publish from")
        can_batch = not self.config.directory_pointers and self.replication is None
        if batch is True and not can_batch:
            raise ValueError(
                "batch publish supports neither directory pointers nor replication"
            )
        if n_keys > 1:
            metrics = self.network.obs.metrics
            metrics.counter("lsh.publish.items", corpus.n_items)
            metrics.counter("lsh.publish.copies", corpus.n_items * n_keys)
        if can_batch if batch is None else batch:
            ids_l = ids.tolist()
            ak_l = angle_keys.tolist()
            if n_keys == 1:
                pk_l = publish_keys.tolist()
                items = [
                    StoredItem(
                        item_id=ids_l[i],
                        publish_key=pk_l[i],
                        angle_key=ak_l[i],
                        keyword_ids=kw,
                        weights=np.asarray(w, dtype=np.float64),
                    )
                    for i, kw, w in corpus.row_slices()
                ]
                flat_keys = publish_keys
                norms = corpus.norms()
            else:
                # Item-major fan-out: row i becomes L StoredItems (one
                # per band key) sharing the row's keyword/weight arrays.
                km_l = key_mat.tolist()
                items = []
                for i, kw, w in corpus.row_slices():
                    w = np.asarray(w, dtype=np.float64)
                    items.extend(
                        StoredItem(
                            item_id=ids_l[i],
                            publish_key=pk,
                            angle_key=ak_l[i],
                            keyword_ids=kw,
                            weights=w,
                        )
                        for pk in km_l[i]
                    )
                flat_keys = key_mat.reshape(-1)
                norms = np.repeat(corpus.norms(), n_keys)
            src = origin if origin is not None else alive[int(rng.integers(0, len(alive)))]
            results = batch_publish(
                self,
                items,
                origin=src,
                hop_budget=self.config.hop_budget,
                policy=self.config.replacement_policy,
                keys=flat_keys,
                norms=norms,
                cascade=cascade,
            )
            self.register_published_many(ids, angle_keys, publish_keys)
            if n_keys == 1:
                return results
            # One result per row: the band-0 copy's placement.
            return results[::n_keys]
        if batch is None:  # auto mode wanted the sweep; the config refused it
            reason = "pointers" if self.config.directory_pointers else "replication"
            self.network.obs.metrics.counter(
                f"publish.batch.fallback.{reason}", corpus.n_items
            )
        origins = (
            rng.integers(0, len(alive), size=corpus.n_items)
            if origin is None
            else None
        )
        km_l = key_mat.tolist()
        results = []
        for row, (i, kw, w) in enumerate(corpus.row_slices()):
            src = origin if origin is not None else alive[int(origins[row])]
            res = None
            for pk in km_l[i]:
                r = publish_item(
                    self,
                    src,
                    int(ids[i]),
                    kw,
                    w,
                    hop_budget=self.config.hop_budget,
                    policy=self.config.replacement_policy,
                    precomputed_keys=(int(angle_keys[i]), int(pk)),
                )
                if res is None:
                    res = r
            self.register_published(int(ids[i]), int(angle_keys[i]), int(publish_keys[i]))
            results.append(res)
        return results

    @staticmethod
    def _check_multi_probe_options(use_first_hop: bool, kwargs: dict) -> None:
        if use_first_hop:
            raise RuntimeError(
                "first-hop selection does not compose with multi-key "
                "naming schemes"
            )
        for name in ("patience", "max_walk", "start_key", "start_keys"):
            if name in kwargs:
                raise ValueError(
                    f"{name} does not apply under a multi-key naming scheme: "
                    "every band walks exactly probe_width nodes past its home "
                    "(MeteorographConfig.lsh_probe_width)"
                )

    def _first_hop_kwargs(
        self, queries: Sequence[SparseVector], kwargs: dict
    ) -> list[dict]:
        """Per query, ``kwargs`` with the §3.5.1 ``start_key`` and sweep
        ``direction`` filled in where the caller left them unset."""
        if self.first_hop is None:
            raise RuntimeError("no first-hop selector (no sample at build time)")
        angle_space = self.config.directory_pointers
        out = []
        for query in queries:
            kw = dict(kwargs)
            kws = [int(i) for i in query.indices]
            start = self.first_hop.start_key(kws, angle_space=angle_space)
            if start is not None:
                kw.setdefault("start_key", start)
                # Walk mode lands at the bottom of the (Eq.-6-stretched)
                # band and sweeps upward, per §3.5.1.  Pointer mode's
                # band is the compact raw-angle cluster and the sample
                # minimum is only a lower *estimate* — sweep both ways
                # so matchers below the sample's min key are not lost.
                kw.setdefault("direction", "both" if angle_space else "up")
            else:
                # No full match in the sample (rare conjunction): start
                # at the best partial match and sweep both ways, since
                # the position is only approximate.
                relaxed = self.first_hop.relaxed_start_key(kws, angle_space=angle_space)
                if relaxed is not None:
                    kw.setdefault("start_key", relaxed[0])
                    kw.setdefault("direction", "both")
            out.append(kw)
        return out

    def retrieve(
        self,
        origin: int,
        query: SparseVector,
        amount: Optional[int],
        *,
        use_first_hop: bool = False,
        **kwargs,
    ) -> RetrieveResult:
        """Similarity search (Fig. 2 ``_retrieve``; §3.5 optimizations opt-in).

        With ``use_first_hop`` the §3.5.1 start key is taken from the
        bootstrap sample and the walk sweeps upward through the band.
        With directory pointers configured, the §3.5.2 protocol is used.
        Under a multi-key naming scheme the query multi-probes every
        band (see :mod:`repro.lsh.probe`) and accepts ``probe_width``,
        ``require_all``, ``min_score`` and ``direction`` only: first-hop
        selection does not compose with it (start keys live in angle
        space, not band space), and ``patience`` / ``max_walk`` /
        ``start_key`` raise ``ValueError`` (a band walks ``probe_width``).
        """
        if self.naming.n_keys > 1:
            self._check_multi_probe_options(use_first_hop, kwargs)
            from ..lsh.probe import multi_probe_retrieve

            return multi_probe_retrieve(self, origin, query, amount, **kwargs)
        if use_first_hop:
            kwargs = self._first_hop_kwargs([query], kwargs)[0]
        if self.config.directory_pointers:
            return retrieve_with_pointers(self, origin, query, amount, **kwargs)
        return retrieve(self, origin, query, amount, **kwargs)

    def retrieve_many(
        self,
        origin,
        queries: Sequence[SparseVector],
        amount: Optional[int],
        *,
        use_first_hop: bool = False,
        **kwargs,
    ) -> list[RetrieveResult]:
        """Batch similarity search: element i equals ``retrieve(origin_i,
        queries[i], amount, ...)`` at a fraction of the cost.

        ``origin`` is one node id for the whole batch or one per query.
        With ``use_first_hop``, the §3.5.1 start key and sweep direction
        are resolved per query exactly as :meth:`retrieve` does; queries
        sharing a resolved (start key, direction) are batched together,
        the rest of the sharing happens inside
        :func:`repro.core.search_batch.retrieve_many` (which falls back
        to the sequential protocols under directory pointers, admission
        control, link faults, replication, or retries, counting each
        fallback under ``retrieve.batch.fallback.<reason>``).

        Under a multi-key naming scheme the batch multi-probes and
        accepts ``probe_width``, ``require_all``, ``min_score`` and
        ``direction`` only; first-hop selection, ``patience``,
        ``max_walk`` and ``start_key[s]`` are rejected as in :meth:`retrieve`.
        """
        queries = list(queries)
        if isinstance(origin, (int, np.integer)):
            origins = [int(origin)] * len(queries)
        else:
            origins = [int(o) for o in origin]
            if len(origins) != len(queries):
                raise ValueError(
                    f"{len(origins)} origins for {len(queries)} queries"
                )
        if self.naming.n_keys > 1:
            self._check_multi_probe_options(use_first_hop, kwargs)
            from ..lsh.probe import multi_probe_retrieve_many

            return multi_probe_retrieve_many(self, origins, queries, amount, **kwargs)
        if not use_first_hop:
            return retrieve_many(self, origins, queries, amount, **kwargs)
        buckets: dict[tuple, list[int]] = {}
        for i, kw in enumerate(self._first_hop_kwargs(queries, kwargs)):
            buckets.setdefault(
                (kw.get("start_key"), kw.get("direction", "both")), []
            ).append(i)
        results: list[Optional[RetrieveResult]] = [None] * len(queries)
        for (start_key, direction), members in buckets.items():
            call_kwargs = dict(kwargs, start_key=start_key, direction=direction)
            out = retrieve_many(
                self,
                [origins[i] for i in members],
                [queries[i] for i in members],
                amount,
                **call_kwargs,
            )
            for i, res in zip(members, out):
                results[i] = res
        return results

    def find(self, origin: int, item_id: int, **kwargs) -> FindResult:
        """Exact-item lookup by its published key (Fig. 9 metric pair)."""
        return find_item(self, origin, item_id, **kwargs)

    def top_k(
        self, origin: int, query: SparseVector, k: int, **kwargs
    ) -> list[Discovery]:
        """Ranked search: the k most similar discovered items, best first."""
        res = self.retrieve(origin, query, k, **kwargs)
        return sorted(res.discoveries, key=lambda d: (-d.score, d.item_id))[:k]

    # ----------------------------------------------------------------- metrics

    def loads(self) -> np.ndarray:
        """Per-node stored item counts, in node key order (Fig. 8 input)."""
        return np.array([len(n) for n in self.overlay.nodes()], dtype=np.int64)

    def ideal_load(self) -> float:
        """c = items / nodes, the paper's per-node ideal."""
        if self.overlay.size == 0:
            raise RuntimeError("no nodes")
        total = self.network.total_items(include_dead=True)
        return total / self.overlay.size
