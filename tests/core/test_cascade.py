"""Cascade placement engine internals (repro.core.cascade).

The placement/accounting equivalence property lives in
``test_batch_publish.py`` (TestCascadeEquivalence); this file pins the
engine's contracts that the property cannot see: the reasons it is
refused, lazy frontier work, observability parity, and shadow seeding
from pre-populated nodes.
"""

import numpy as np
import pytest
from publish_oracle import oracle_publish, stored_rows

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.publish import ReplacementPolicy, _cascade_reason, run_displacement_chain
from repro.overload.admission import AdmissionController, OverloadPolicy
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.node import StoredItem
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
N_NODES = 80


def make_trace(seed=19980724):
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=300), seed=seed
    )


def build_system(trace, *, capacity=None, seed=9, **cfg_kwargs):
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
    )


def placements(system):
    return {
        node.node_id: frozenset(node.item_ids())
        for node in system.network.nodes()
        if len(node)
    }


def make_item(item_id, key, dim=300):
    return StoredItem(
        item_id=item_id,
        publish_key=key,
        angle_key=key,
        keyword_ids=np.array([1, 2], dtype=np.int64),
        weights=np.array([1.0, 2.0]),
    )


class TestLazyFrontier:
    def test_no_displacement_publish_does_zero_neighbor_ordering(self):
        """Satellite: a publish landing on a non-full home must never
        even *construct* the closest-neighbors frontier."""
        trace = make_trace()
        system = build_system(trace)  # infinite capacity: nothing displaces
        calls = []
        original = system.overlay.closest_neighbors

        def spying(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        system.overlay.closest_neighbors = spying
        home = next(iter(system.overlay.ring))
        run_displacement_chain(system, home, make_item(1, 100))
        assert calls == []

    def test_full_home_still_walks_frontier(self):
        trace = make_trace()
        system = build_system(trace, capacity=1)
        calls = []
        original = system.overlay.closest_neighbors

        def spying(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        home = next(iter(system.overlay.ring))
        system.store_at(home, make_item(1, 100))  # fill the home
        system.overlay.closest_neighbors = spying
        res = run_displacement_chain(system, home, make_item(2, 101))
        assert res.success
        assert len(calls) == 1


class TestCascadeSupport:
    def test_cosine_unsupported(self):
        trace = make_trace()
        assert _cascade_reason(build_system(trace)) is None
        cosine = build_system(trace, replacement_policy=ReplacementPolicy.COSINE)
        assert _cascade_reason(cosine) == "cosine"

    def test_notifications_force_fallback(self):
        trace = make_trace()
        system = build_system(trace)
        system.notifications = object()  # any attached service
        assert _cascade_reason(system) == "notifications"

    def test_admission_and_link_faults_force_fallback(self):
        trace = make_trace()
        system = build_system(trace)
        system.network.attach_link_faults(LinkFaultPlane(seed=1))
        assert _cascade_reason(system) == "link_faults"
        # First match wins, as for retrieve.batch.fallback.<reason>.
        system.network.attach_admission(AdmissionController(OverloadPolicy()))
        assert _cascade_reason(system) == "admission"


class TestObservabilityParity:
    def _run(self, cascade):
        trace = make_trace()
        system = build_system(trace, capacity=5, observability=True)
        if cascade:
            system.publish_corpus(trace.corpus, np.random.default_rng(3))
        else:
            oracle_publish(system, trace.corpus, np.random.default_rng(3), sweep=True)
        return system

    def test_counters_and_events_match_sequential(self):
        seq = self._run(False)
        cas = self._run(True)
        sm, cm = seq.obs.metrics, cas.obs.metrics
        assert sm.counters.get("net.sent.displace") == cm.counters.get(
            "net.sent.displace"
        )
        assert sm.buckets.get("net.node_inbox") == cm.buckets.get("net.node_inbox")
        seq_ev = [
            (s.attrs["src"], s.attrs["dst"], s.attrs["item"])
            for s in seq.obs.tracer.find("displace")
        ]
        cas_ev = [
            (s.attrs["src"], s.attrs["dst"], s.attrs["item"])
            for s in cas.obs.tracer.find("displace")
        ]
        assert seq_ev == cas_ev
        assert seq_ev  # the scenario actually displaces

    def test_cascade_metrics_emitted(self):
        cas = self._run(True)
        c = cas.obs.metrics.counters
        assert c["publish.cascade_items"] == N_ITEMS
        assert c["publish.cascade_spills"] == c["net.sent.displace"]
        assert "publish.cascade" in cas.obs.metrics.timers

    def test_fallback_counter_on_cosine(self):
        trace = make_trace()
        system = build_system(
            trace,
            capacity=5,
            observability=True,
            replacement_policy=ReplacementPolicy.COSINE,
        )
        system.publish_corpus(trace.corpus, np.random.default_rng(3))
        # COSINE never enters the engine: the per-item chains place.
        counters = system.obs.metrics.counters
        assert "publish.cascade_items" not in counters
        assert counters["publish.cascade.fallback.cosine"] == N_ITEMS


class TestPrePopulatedSeeding:
    def test_second_batch_over_loaded_ring_matches_sequential(self):
        """Shadows seeded from non-empty nodes: publish one corpus, then
        cascade a second one over the already-loaded ring and compare
        with the sequential loop (exercises moved-norm reconcile for
        pre-existing items displaced by the new batch)."""
        first = make_trace(seed=11)
        second = make_trace(seed=22)
        seq_sys = build_system(first, capacity=7)
        cas_sys = build_system(first, capacity=7)
        ids2 = np.arange(N_ITEMS, 2 * N_ITEMS, dtype=np.int64)
        for sys_ in (seq_sys, cas_sys):
            sys_.publish_corpus(first.corpus, np.random.default_rng(3))
        oracle_publish(
            seq_sys, second.corpus, np.random.default_rng(4), item_ids=ids2, sweep=True
        )
        cas_sys.publish_corpus(second.corpus, np.random.default_rng(4), item_ids=ids2)
        assert placements(seq_sys) == placements(cas_sys)
        assert stored_rows(seq_sys) == stored_rows(cas_sys)
        # Index norms stay queryable for every stored item (the moved-
        # norm bookkeeping didn't lose or fabricate entries).
        for sys_ in (seq_sys, cas_sys):
            for node in sys_.network.nodes():
                for iid in node.item_ids():
                    node.index.norm_of(iid)  # must not raise

    def test_republish_over_full_ring_matches_sequential(self):
        """Republishing ids that full nodes already hold: the swap admits
        the new copy in place of the held one, as store_at does, so the
        shadow ladder must drop the held copy's entry too."""
        trace = make_trace()
        outcomes = []
        for cascade in (False, True):
            system = build_system(trace, capacity=5)
            system.publish_corpus(trace.corpus, np.random.default_rng(3))
            if cascade:
                results = system.publish_corpus(trace.corpus, np.random.default_rng(4))
            else:
                results = oracle_publish(
                    system, trace.corpus, np.random.default_rng(4), sweep=True
                )
            outcomes.append((
                placements(system),
                stored_rows(system),
                [(r.home, r.success, r.dropped_item_id, r.chain) for r in results],
            ))
        assert outcomes[0] == outcomes[1]

    def test_band_copies_over_loaded_ring_match_sequential(self):
        """Under LSH an item's band copies can land on one node, where the
        later copy replaces the earlier in place; over a loaded ring that
        in-place branch meets seeded rows, and every stored row (keys,
        vector, indexed norm) and ladder must equal the chain loop's."""
        first = make_trace(seed=11)
        second = make_trace(seed=22)
        ids2 = np.arange(N_ITEMS, 2 * N_ITEMS, dtype=np.int64)
        systems = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            sample_ids = np.sort(rng.choice(N_ITEMS, 50, replace=False))
            cfg = MeteorographConfig(
                scheme=PlacementScheme.NONE,
                naming_scheme="cosine-lsh",
                lsh_bands=4,
                node_capacity=12,
            )
            system = Meteorograph.build(
                30,
                first.corpus.dim,
                rng=np.random.default_rng(9),
                sample=first.corpus.subsample(sample_ids),
                config=cfg,
            )
            system.publish_corpus(first.corpus, np.random.default_rng(3))
            systems.append(system)
        seq_sys, cas_sys = systems
        oracle_publish(
            seq_sys, second.corpus, np.random.default_rng(4), item_ids=ids2, sweep=True
        )
        cas_sys.publish_corpus(second.corpus, np.random.default_rng(4), item_ids=ids2)
        assert stored_rows(seq_sys) == stored_rows(cas_sys)
        assert seq_sys.network.sink.snapshot() == cas_sys.network.sink.snapshot()

    def test_an_id_the_record_does_not_name_fails_loudly(self):
        """The packed ladder orders ids only inside the bounds the batch
        and the item record give it; a node holding an id past them (a
        store the record never credited) stops the cascade before any
        node is written, instead of mis-ordering its victims."""
        trace = make_trace()
        system = build_system(trace, capacity=5)
        for node in system.network.nodes():
            node.store(make_item(10**9 + node.node_id, key=node.node_id))
        before = {n.node_id: sorted(n.item_ids()) for n in system.network.nodes()}
        with pytest.raises(RuntimeError, match="does not name"):
            system.publish_corpus(trace.corpus, np.random.default_rng(3))
        assert {n.node_id: sorted(n.item_ids()) for n in system.network.nodes()} == before

    def test_retrieve_after_cascade_matches_sequential(self):
        """The reconciled inverted indexes answer queries identically."""
        trace = make_trace()
        seq_sys = build_system(trace, capacity=6)
        cas_sys = build_system(trace, capacity=6)
        oracle_publish(seq_sys, trace.corpus, np.random.default_rng(3), sweep=True)
        cas_sys.publish_corpus(trace.corpus, np.random.default_rng(3))
        rng = np.random.default_rng(8)
        for row in rng.choice(N_ITEMS, size=20, replace=False).tolist():
            q = trace.corpus.vector(row)
            origin_seq = seq_sys.random_origin(np.random.default_rng(1))
            origin_cas = cas_sys.random_origin(np.random.default_rng(1))
            a = seq_sys.retrieve(origin_seq, q, 5)
            b = cas_sys.retrieve(origin_cas, q, 5)
            assert [d.item_id for d in a.discoveries] == [
                d.item_id for d in b.discoveries
            ]
