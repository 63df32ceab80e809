"""Batch publish ≡ sequential publish (the single-sweep fast path).

The property the whole fast path stands on: for the same corpus, seed
and configuration, :func:`repro.core.publish.batch_publish` (via
``publish_corpus(batch=True)``) produces exactly the placements and
per-item ``PublishResult`` accounting of the sequential per-item loop.
Only *route* accounting is excluded — batch charges 1 route plus a
ring sweep instead of one route per item, by design.
"""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.publish import ReplacementPolicy, batch_live_homes
from repro.overlay.idspace import KeySpace, SortedKeyRing
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
N_NODES = 80


def make_trace(seed=19980724):
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=300), seed=seed
    )


def build_system(trace, *, capacity=None, seed=9, capacity_fn=None, **cfg_kwargs):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(trace.corpus.n_items, 50, replace=False))
    cfg = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH, node_capacity=capacity, **cfg_kwargs
    )
    return Meteorograph.build(
        N_NODES,
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
    excluded: batch charges the sweep marginally, by design)."""
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
        seq = seq_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=False)
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        assert seq_sys._published == bat_sys._published

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_batch_matches_sequential_across_seeds(self, seed):
        trace = make_trace(seed=seed)
        seq_sys = build_system(trace, capacity=7, seed=seed + 1)
        bat_sys = build_system(trace, capacity=7, seed=seed + 1)
        seq = seq_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=False)
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)

    def test_batch_respects_hop_budget(self):
        trace = make_trace()
        seq_sys = build_system(trace, capacity=4, hop_budget=2)
        bat_sys = build_system(trace, capacity=4, hop_budget=2)
        seq = seq_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=False)
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        # A tight budget over an overloaded ring must actually drop items
        # (otherwise this test exercises nothing).
        assert any(not r.success for r in bat)

    def test_batch_message_total_is_sweep_not_per_item(self):
        trace = make_trace()
        seq_sys = build_system(trace)
        bat_sys = build_system(trace)
        seq = seq_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=False)
        bat = bat_sys.publish_corpus(trace.corpus, np.random.default_rng(3), batch=True)
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
        forced.publish_corpus(trace.corpus, np.random.default_rng(3), batch=False)
        # Same loop, same bill: the announcement charges nothing.
        assert placements(auto) == placements(forced)
        assert auto.network.sink.snapshot() == forced.network.sink.snapshot()
        counters = dict(auto.obs.metrics.counters)
        # Exactly one counter moves, by item count; asking for the loop
        # (batch=False) is not a fallback and counts nothing.
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
    capacity shape the sequential semantics can take (the ISSUE-5
    equivalence contract: list-order outcomes, drops, chains, hops)."""

    def _compare(self, trace, *, capacity=None, capacity_fn=None, **cfg_kwargs):
        seq_sys = build_system(
            trace, capacity=capacity, capacity_fn=capacity_fn, **cfg_kwargs
        )
        cas_sys = build_system(
            trace, capacity=capacity, capacity_fn=capacity_fn, **cfg_kwargs
        )
        seq = seq_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=False
        )
        cas = cas_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=True
        )
        assert placements(seq_sys) == placements(cas_sys)
        assert accounting(seq) == accounting(cas)
        # route accounting is shared by both batch branches → results
        # must be *fully* identical here, route_hops included.
        assert [r.route_hops for r in seq] == [r.route_hops for r in cas]
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
        seq_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=False
        )
        cas_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True, cascade=True
        )
        for kind in ("publish", "displace", "route"):
            assert seq_sys.network.sink.count(kind) == cas_sys.network.sink.count(
                kind
            ), kind

    def test_cosine_policy_falls_back(self):
        """COSINE victim selection always takes the sequential branch —
        and the batch result is still equivalent to it."""
        trace = make_trace()
        cfg = dict(
            capacity=6, replacement_policy=ReplacementPolicy.COSINE
        )
        seq_sys = build_system(trace, **cfg)
        bat_sys = build_system(trace, **cfg)
        seq = seq_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=False
        )
        bat = bat_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True
        )
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)

    def test_forced_cascade_rejected_for_cosine(self):
        trace = make_trace()
        system = build_system(
            trace, capacity=6, replacement_policy=ReplacementPolicy.COSINE
        )
        with pytest.raises(ValueError, match="cascade"):
            system.publish_corpus(
                trace.corpus, np.random.default_rng(3), batch=True, cascade=True
            )

    def test_roomy_finite_capacity_takes_bulk_branch(self):
        """Loads + arrivals under capacity everywhere → the no-overflow
        prepass proves the batch displacement-free and bulk-stores it
        (zero displace messages), with sequential-identical placement."""
        trace = make_trace()
        seq_sys = build_system(trace, capacity=40)
        bat_sys = build_system(trace, capacity=40)
        seq = seq_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=False
        )
        bat = bat_sys.publish_corpus(
            trace.corpus, np.random.default_rng(3), batch=True
        )
        assert placements(seq_sys) == placements(bat_sys)
        assert accounting(seq) == accounting(bat)
        assert bat_sys.network.sink.count("displace") == 0


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
