"""The one write engine ≡ the unshared loop.

The property the whole engine stands on: for the same corpus, seed and
configuration, ``publish_corpus`` (one route plus a ring sweep, and the
cascade engine where the configuration lets it replay displacements)
produces exactly the placements and per-item ``PublishResult``
accounting of ``oracle_publish``, the unshared per-item loop.  Only
*route* accounting is excluded — the engine charges 1 route plus a ring
sweep instead of one route per item, by design; against the oracle's
shared-route mode (``sweep=True``) results are equal outright.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from publish_oracle import dot_norms, oracle_publish, stored_rows

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.notify import NotificationService
from repro.core.publish import ReplacementPolicy, batch_live_homes
from repro.overlay.idspace import KeySpace, SortedKeyRing
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.node import StoredItem
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
N_NODES = 80


def make_trace(seed=19980724):
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=300), seed=seed
    )


def build_system(
    trace, *, capacity=None, seed=9, capacity_fn=None, n_nodes=N_NODES, **cfg_kwargs
):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(trace.corpus.n_items, 50, replace=False))
    cfg = MeteorographConfig(
        **{"scheme": PlacementScheme.UNUSED_HASH, **cfg_kwargs}, node_capacity=capacity
    )
    return Meteorograph.build(
        n_nodes,
        trace.corpus.dim,
        rng=np.random.default_rng(seed),
        sample=trace.corpus.subsample(sample_ids),
        config=cfg,
        capacity_fn=capacity_fn,
    )


def placements(system):
    """node id → frozenset of stored item ids, for every non-empty node."""
    out = {}
    for node in system.network.nodes():
        ids = frozenset(node.item_ids())
        if ids:
            out[node.node_id] = ids
    return out


def accounting(results):
    """Per-item result fields that must match exactly (route_hops is
    excluded: the engine charges the sweep marginally, by design)."""
    return [
        (r.item_id, r.home, r.success, r.dropped_item_id, r.displacement_hops, r.chain)
        for r in results
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("capacity", [None, 9])
    def test_batch_matches_sequential(self, capacity):
        trace = make_trace()
        seq_sys = build_system(trace, capacity=capacity)
        bat_sys = build_system(trace, capacity=capacity)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        assert seq_sys.replication.keys == bat_sys.replication.keys

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_batch_matches_sequential_across_seeds(self, seed):
        trace = make_trace(seed=seed)
        seq_sys = build_system(trace, capacity=7, seed=seed + 1)
        bat_sys = build_system(trace, capacity=7, seed=seed + 1)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)

    def test_batch_respects_hop_budget(self):
        trace = make_trace()
        seq_sys = build_system(trace, capacity=4, hop_budget=2)
        bat_sys = build_system(trace, capacity=4, hop_budget=2)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        # A tight budget over an overloaded ring must actually drop items
        # (otherwise this test exercises nothing).
        assert any(not r.success for r in bat)

    def test_batch_message_total_is_sweep_not_per_item(self):
        trace = make_trace()
        seq_sys = build_system(trace)
        bat_sys = build_system(trace)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        seq_msgs = sum(r.messages for r in seq)
        bat_msgs = sum(r.messages for r in bat)
        assert bat_msgs < seq_msgs / 4
        # route_hops sums to what was actually charged on the network.
        assert bat_msgs == bat_sys.network.sink.count("publish") + sum(
            r.displacement_hops for r in bat
        )

    def test_auto_mode_picks_batch_when_allowed(self):
        trace = make_trace()
        system = build_system(trace)
        system.publish_corpus(trace.corpus, np.random.default_rng(3))
        # The sweep charges ~O(N_nodes) publish messages; the per-item
        # loop would charge one route per item (far more than N_ITEMS).
        assert system.network.sink.count("publish") < N_ITEMS

    def test_forced_batch_rejected_with_replication(self):
        trace = make_trace()
        system = build_system(trace, replication_factor=2)
        with pytest.raises(ValueError, match="batch publish"):
            system.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)

    def test_replication_auto_falls_back_to_sequential(self):
        trace = make_trace()
        system = build_system(trace, replication_factor=2)
        results = system.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert len(results) == N_ITEMS
        # Replicas exist → the per-item protocol ran.
        assert system.network.total_items() > N_ITEMS


    @pytest.mark.parametrize(
        "reason, config",
        [
            ("pointers", dict(directory_pointers=True)),
            ("replication", dict(replication_factor=2)),
            # First match wins, as for retrieve.batch.fallback.<reason>.
            ("pointers", dict(directory_pointers=True, replication_factor=2)),
        ],
    )
    def test_auto_fallback_announces_its_reason(self, reason, config):
        trace = make_trace()
        auto = build_system(trace, observability=True, **config)
        forced = build_system(trace, observability=True, **config)
        auto.publish_corpus(trace.corpus, np.random.default_rng(3))
        oracle_publish(forced, trace.corpus, np.random.default_rng(3))
        # Same loop, same bill: the announcement charges nothing.
        assert placements(auto) == placements(forced)
        assert auto.network.sink.snapshot() == forced.network.sink.snapshot()
        counters = dict(auto.obs.metrics.counters)
        # Exactly one counter moves, by item count.
        assert counters.pop(f"publish.batch.fallback.{reason}") == N_ITEMS
        assert counters == dict(forced.obs.metrics.counters)
        assert not [k for k in counters if k.startswith("publish.batch.fallback")]

    def test_batch_path_counts_no_fallback(self):
        trace = make_trace()
        system = build_system(trace, observability=True)
        system.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert not [
            k for k in system.obs.metrics.counters
            if k.startswith("publish.batch.fallback")
        ]


class TestCascadeEquivalence:
    """The cascade engine ≡ the per-item chain loop, under every finite
    capacity shape the sequential semantics can take (list-order
    outcomes, drops, chains, hops)."""

    def _compare(self, trace, *, capacity=None, capacity_fn=None, **cfg_kwargs):
        seq_sys = build_system(
            trace, capacity=capacity, capacity_fn=capacity_fn, **cfg_kwargs
        )
        cas_sys = build_system(
            trace, capacity=capacity, capacity_fn=capacity_fn, **cfg_kwargs
        )
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3), sweep=True)
        cas = cas_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(cas_sys)
        corpus = trace.corpus
        assert stored_rows(seq_sys, dot_norms(corpus)) == stored_rows(cas_sys, corpus.norms())
        assert accounting(seq) == accounting(cas)
        # The oracle shares the route and sweep too, so results are
        # *fully* identical here, route_hops and the whole bill included.
        assert [r.route_hops for r in seq] == [r.route_hops for r in cas]
        assert seq_sys.network.sink.snapshot() == cas_sys.network.sink.snapshot()
        return seq_sys, cas_sys, seq, cas

    @pytest.mark.parametrize("capacity", [5, 6, 9])
    def test_tight_capacity(self, capacity):
        """Tight capacities (ideal load is 5) force long spill cascades."""
        _, _, seq, cas = self._compare(make_trace(), capacity=capacity)
        assert sum(r.displacement_hops for r in cas) > 0

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_tight_capacity_across_seeds(self, seed):
        self._compare(make_trace(seed=seed), capacity=5)

    def test_uneven_capacities(self):
        """Heterogeneous per-node capacities (Tornado capability mix)."""

        def caps(rng):
            return int(rng.integers(1, 16))

        _, _, _, cas = self._compare(make_trace(), capacity_fn=caps)
        assert sum(r.displacement_hops for r in cas) > 0

    def test_uneven_capacities_with_infinite_mix(self):
        def caps(rng):
            c = int(rng.integers(0, 12))
            return None if c == 0 else c

        self._compare(make_trace(), capacity_fn=caps)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_hop_budget_exhaustion(self, budget):
        """Budget-exhausted chains drop their final victim identically."""
        _, _, _, cas = self._compare(
            make_trace(), capacity=4, hop_budget=budget
        )
        assert any(not r.success for r in cas)
        for r in cas:
            assert r.displacement_hops <= budget

    def test_overlay_exhaustion_drops(self):
        """Total capacity below the corpus: chains run off the frontier
        and drop, exactly like the sequential walk off the ring end."""
        _, _, _, cas = self._compare(make_trace(), capacity=3)
        assert any(not r.success for r in cas)

    def test_displace_message_accounting_matches(self):
        trace = make_trace()
        seq_sys = build_system(trace, capacity=5)
        cas_sys = build_system(trace, capacity=5)
        oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        cas_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert seq_sys.network.sink.count("displace") == cas_sys.network.sink.count(
            "displace"
        )
        # The unshared loop routes every item; the engine routes once.
        assert cas_sys.network.sink.count("publish") < seq_sys.network.sink.count(
            "publish"
        )

    def test_cosine_policy_falls_back(self):
        """COSINE victim selection always takes the per-item chain loop
        — and the batch result is still equivalent to the oracle."""
        trace = make_trace()
        cfg = dict(
            capacity=6, replacement_policy=ReplacementPolicy.COSINE
        )
        seq_sys = build_system(trace, **cfg)
        bat_sys = build_system(trace, **cfg)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)

    def test_roomy_finite_capacity_takes_bulk_branch(self):
        """Loads + arrivals under capacity everywhere → the no-overflow
        prepass proves the batch displacement-free and bulk-stores it
        (zero displace messages), with sequential-identical placement."""
        trace = make_trace()
        seq_sys = build_system(trace, capacity=40)
        bat_sys = build_system(trace, capacity=40)
        seq = oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3))
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        assert bat_sys.network.sink.count("displace") == 0


class TestColumnarWrites:
    """The shared write path stores index rows gathered from the batch's
    columns: no per-copy object is built between naming and the store."""

    @pytest.mark.parametrize("capacity", [5, 40])
    def test_shared_publish_builds_no_stored_item(self, capacity, monkeypatch):
        trace = make_trace()
        system = build_system(trace, capacity=capacity)
        built = []
        check = StoredItem.__post_init__
        monkeypatch.setattr(
            StoredItem, "__post_init__", lambda item: (built.append(item), check(item))
        )
        results = system.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert len(results) == N_ITEMS
        assert system.network.total_items() > 0
        assert built == []


class TestLossyPlane:
    """Every displacement push crosses the fault plane: a lossy plane
    refuses the cascade (which bills its hops in bulk), so the engine
    drops what the per-item chains drop and bills what the plane saw."""

    def test_default_publish_matches_oracle_under_loss(self):
        trace = generate_trace(WorldCupParams(n_items=3000, n_keywords=600), seed=19980724)
        eng_sys = build_system(trace, capacity=60, n_nodes=60)
        ref_sys = build_system(trace, capacity=60, n_nodes=60)
        plane = eng_sys.network.attach_link_faults(LinkFaultPlane(seed=3, drop_prob=0.2))
        ref_sys.network.attach_link_faults(LinkFaultPlane(seed=3, drop_prob=0.2))
        eng = eng_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        ref = oracle_publish(ref_sys, trace.corpus, np.random.default_rng(3), sweep=True)
        assert any(not r.success for r in ref)  # the plane did drop pushes
        assert placements(eng_sys) == placements(ref_sys)
        assert accounting(eng) == accounting(ref)
        assert eng_sys.network.sink.snapshot() == ref_sys.network.sink.snapshot()
        assert plane.charged == eng_sys.network.sink.total


def stale_ring(seed):
    """300 nodes, 120 of them failed and not yet stabilized away."""
    trace = generate_trace(WorldCupParams(n_items=2000, n_keywords=400), seed=19980724)
    system = build_system(trace, seed=seed, n_nodes=300)
    failed = np.random.default_rng(seed + 100).choice(list(system.overlay.ring), 120, replace=False)
    for nid in failed.tolist():
        system.network.node(nid).fail()
    live = [nid for nid in system.overlay.ring if system.network.is_alive(nid)]
    return trace, system, live


class TestStaleRing:
    """The equivalence boundary: the shared sweep places at live homes,
    the unshared loop wherever its own route lands."""

    @pytest.mark.parametrize("seed", [10, 14, 30])
    def test_sweep_never_laps_the_ring(self, seed):
        """A route that lands past the first home must not send the
        sweep round the ring once to reach it and once more to finish:
        the sweep runs one lap at most."""
        trace, system, live = stale_ring(seed)
        origin = live[int(np.random.default_rng(seed).integers(0, len(live)))]
        results = system.publish_corpus(trace.corpus, np.random.default_rng(seed), origin=origin)
        bill = system.network.sink.count("publish")
        first_key = int(system.corpus_keys_multi(trace.corpus)[1][:, 0].min())
        route = system.overlay.route(origin, first_key)
        assert bill <= route.hops + len(live)
        assert sum(r.route_hops for r in results) == bill

    def test_shared_homes_are_live_homes(self):
        trace, shared_sys, _ = stale_ring(10)
        _, loop_sys, _ = stale_ring(10)
        shared = shared_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        loop = oracle_publish(loop_sys, trace.corpus, np.random.default_rng(3))
        keys = shared_sys.corpus_keys_multi(trace.corpus)[1][:, 0].tolist()
        assert [r.home for r in shared] == [shared_sys.overlay.live_home(k) for k in keys]
        # Stalled per-item routes place elsewhere: the boundary is real.
        assert sum(a.home != b.home for a, b in zip(shared, loop)) > 0


PROPERTY_TRACE = generate_trace(WorldCupParams(n_items=160, n_keywords=200), seed=7)
CAPACITIES = {
    "none": dict(capacity=None),
    "roomy": dict(capacity=40),
    "tight": dict(capacity=5),
    "uneven": dict(capacity_fn=lambda rng: int(rng.integers(1, 12))),
}


class TestEngineProperty:
    """Across capacity shapes, hop budgets, L, the victim policy,
    notifications and a lossy plane, the engine equals the oracle, and
    a ``publish.*.fallback.<reason>`` counter moves iff the
    configuration names that reason (first match)."""

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.sampled_from(sorted(CAPACITIES)),
        hop_budget=st.sampled_from([None, 0, 1, 3]),
        bands=st.sampled_from([1, 4]),
        policy=st.sampled_from([ReplacementPolicy.ANGLE, ReplacementPolicy.COSINE]),
        notifications=st.booleans(),
        lossy=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_engine_equals_oracle(
        self, capacity, hop_budget, bands, policy, notifications, lossy, seed
    ):
        corpus = PROPERTY_TRACE.corpus
        cfg = dict(
            CAPACITIES[capacity],
            hop_budget=hop_budget,
            replacement_policy=policy,
            observability=True,
            n_nodes=30,
        )
        if bands > 1:
            cfg.update(scheme=PlacementScheme.NONE, naming_scheme="cosine-lsh", lsh_bands=bands)
        twins = []
        for _ in range(2):
            system = build_system(PROPERTY_TRACE, **cfg)
            if notifications:
                service = NotificationService(system).attach()
                service.subscribe(next(iter(system.overlay.ring)), corpus.vector(0))
            if lossy:
                system.network.attach_link_faults(LinkFaultPlane(seed=seed, drop_prob=0.2))
            twins.append((system, system.network.sink.total))
        (eng_sys, eng_before), (ref_sys, _) = twins
        eng = eng_sys.publish_corpus(corpus, np.random.default_rng(seed))
        # Per-item routes stall on a lossy link: share the route there.
        ref = oracle_publish(ref_sys, corpus, np.random.default_rng(seed), sweep=lossy)
        assert placements(eng_sys) == placements(ref_sys)
        # The chain loop a refused cascade falls back to stores objects,
        # so it indexes the scalar store's norms; the bulk branches the
        # batch's norm column.
        chained = "publish.displace_chain" in eng_sys.obs.metrics.timers
        eng_norms = dot_norms(corpus) if chained else corpus.norms()
        assert stored_rows(eng_sys, eng_norms) == stored_rows(ref_sys, dot_norms(corpus))
        assert accounting(eng) == accounting(ref)
        sink = eng_sys.network.sink
        assert sink.count("displace") == ref_sys.network.sink.count("displace")
        if lossy:
            assert eng_sys.network.link_faults.charged == sink.total - eng_before
        reason = (
            "cosine" if policy is ReplacementPolicy.COSINE
            else "notifications" if notifications
            else "link_faults" if lossy
            else None
        )
        fallbacks = {
            k: v for k, v in eng_sys.obs.metrics.counters.items()
            if k.startswith("publish.") and ".fallback." in k
        }
        assert fallbacks == ({f"publish.cascade.fallback.{reason}": corpus.n_items} if reason else {})


class TestBatchLiveHomesProperty:
    """``batch_live_homes`` ≡ scalar ``SortedKeyRing.closest`` — the
    vectorised home computation must mirror the scalar tie-break
    (equidistant → smaller id) and the modulus wrap-around exactly."""

    @pytest.mark.parametrize("modulus", [2, 3, 16, 97, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_closest(self, modulus, seed):
        rng = np.random.default_rng(seed)
        space = KeySpace(modulus=modulus)
        n_nodes = int(rng.integers(1, min(modulus, 12) + 1))
        nodes = rng.choice(modulus, size=n_nodes, replace=False)
        ring = SortedKeyRing(space, nodes.tolist())
        live_sorted = ring.as_array()
        keys = np.arange(modulus, dtype=np.int64)  # every key, exhaustively
        homes = batch_live_homes(space, live_sorted, keys)
        for k, h in zip(keys.tolist(), homes.tolist()):
            assert h == ring.closest(k), (modulus, sorted(nodes.tolist()), k)

    def test_wraparound_and_ties_targeted(self):
        """Hand-built wrap and equidistance cases.

        With nodes at 1 and 97 of a 100-space, key 99 wraps (distance 2
        to 1, 2 to 97 → tie → smaller id 1) and key 0 wraps to 1.
        """
        space = KeySpace(modulus=100)
        ring = SortedKeyRing(space, [1, 97])
        live = ring.as_array()
        keys = np.array([99, 0, 49, 48, 50], dtype=np.int64)
        homes = batch_live_homes(space, live, keys)
        assert homes.tolist() == [ring.closest(int(k)) for k in keys]
        # Explicit expectations so the scalar itself is pinned too:
        # 99 → ties at distance 2 → smaller id 1; 49 → equidistant
        # (48 vs 48) → smaller id 1.
        assert homes.tolist()[0] == 1
        assert homes.tolist()[2] == 1

    def test_single_node_ring(self):
        space = KeySpace(modulus=64)
        ring = SortedKeyRing(space, [40])
        homes = batch_live_homes(
            space, ring.as_array(), np.arange(64, dtype=np.int64)
        )
        assert (homes == 40).all()
