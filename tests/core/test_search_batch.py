"""Batch retrieve ≡ sequential retrieve (the shared-sweep read path).

Twin identically-built systems: the sequential loop runs on one, the
batch engine on the other, and every per-query ``RetrieveResult`` field
plus the network sink's message totals must match exactly — the same
contract ``test_batch_publish`` pins for the write path.  Scores match
bit-for-bit because both paths run the same vectorised index kernel.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.search import retrieve, retrieve_with_pointers
from repro.core.search_batch import retrieve_many
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.maint.retry import RetryPolicy
from repro.obs import Observability
from repro.overload import AdmissionController, OverloadPolicy
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.network import Network
from repro.vsm.sparse import SparseVector

DIM = 32
SPACE = KeySpace(10_000)
KW_POOL = 12  # small pool → heavy keyword overlap → co-located queries


def make_system(node_ids, capacity=None, obs=False, **config) -> Meteorograph:
    network = Network(obs=Observability() if obs else None)
    overlay = TornadoOverlay(SPACE, network)
    system = Meteorograph(
        space=SPACE,
        network=network,
        overlay=overlay,
        dim=DIM,
        config=MeteorographConfig(
            scheme=PlacementScheme.NONE, node_capacity=capacity, **config
        ),
        equalizer=None,
    )
    for nid in node_ids:
        overlay.add_node(nid, capacity=capacity)
    return system


def twin_worlds(seed, *, capacity=None, n_nodes=40, n_items=60, obs=False, **config):
    """Two identically-built, identically-published systems + the rng."""
    rng = np.random.default_rng(seed)
    node_ids = sorted(rng.choice(10_000, size=n_nodes, replace=False).tolist())
    systems = tuple(make_system(node_ids, capacity, obs, **config) for _ in range(2))
    for item_id in range(n_items):
        k = int(rng.integers(1, 4))
        kws = sorted(rng.choice(KW_POOL, size=k, replace=False).tolist())
        ws = np.round(rng.uniform(0.5, 2.0, size=k), 3).tolist()
        for s in systems:
            s.publish(s.overlay.ring.at(0), item_id, kws, ws)
    return rng, systems[0], systems[1]


def random_queries(rng, n, *, dup_every=4):
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        kws = rng.choice(KW_POOL, size=k, replace=False).tolist()
        ws = rng.uniform(0.5, 2.0, size=k)
        out.append(SparseVector.from_mapping(dict(zip(kws, ws)), DIM))
    if dup_every:
        for i in range(dup_every, n, dup_every):
            out[i] = out[i % dup_every]  # co-located duplicates
    return out


def snap(r):
    """Every accounting field the equivalence contract covers."""
    return (
        [(d.item_id, d.node_id, d.score, d.hops) for d in r.discoveries],
        r.route_hops,
        r.walk_hops,
        r.fetch_hops,
        r.reply_messages,
        r.visited,
        r.complete,
        r.degradation_level,
    )


def assert_equiv(seq_sys, bat_sys, origins, queries, amount, **kwargs):
    a0 = seq_sys.network.sink.count("retrieve")
    b0 = bat_sys.network.sink.count("retrieve")
    seq = [
        retrieve(seq_sys, o, q, amount, **kwargs)
        for o, q in zip(origins, queries)
    ]
    bat = retrieve_many(bat_sys, origins, queries, amount, **kwargs)
    assert [snap(r) for r in seq] == [snap(r) for r in bat]
    assert (
        seq_sys.network.sink.count("retrieve") - a0
        == bat_sys.network.sink.count("retrieve") - b0
    )
    return seq, bat


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("amount", [1, 3, None])
    def test_mixed_storm(self, seed, amount):
        rng, a, b = twin_worlds(seed)
        queries = random_queries(rng, 24)
        origins = [a.random_origin(rng) for _ in queries]
        assert_equiv(a, b, origins, queries, amount, patience=6)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_displacement_spread_worlds(self, seed):
        """capacity=1 spreads same-key items over neighbors, so walks are
        long and per-item hop counts vary along them."""
        rng, a, b = twin_worlds(seed, capacity=1, n_items=40)
        queries = random_queries(rng, 16)
        origins = [a.random_origin(rng) for _ in queries]
        seq, _ = assert_equiv(a, b, origins, queries, None, patience=10)
        assert any(r.walk_hops > 2 for r in seq)

    def test_shared_origin_duplicates_replay(self):
        """Duplicate (origin, content) queries must charge full price."""
        rng, a, b = twin_worlds(3)
        q = random_queries(rng, 1, dup_every=0)[0]
        origin = a.random_origin(rng)
        queries, origins = [q] * 10, [origin] * 10
        seq, bat = assert_equiv(a, b, origins, queries, 3)
        assert all(snap(r) == snap(seq[0]) for r in seq)
        # The replayed copies are independent objects.
        assert bat[0].discoveries is not bat[1].discoveries

    def test_distinct_contents_sharing_home(self):
        """Different query vectors landing on one home share its sweep."""
        rng, a, b = twin_worlds(5)
        base = random_queries(rng, 6, dup_every=0)
        # Same keyword sets with different weights → nearby/equal keys.
        queries = base + [
            SparseVector.from_mapping(
                dict(zip(q.indices.tolist(), (q.values * 1.001).tolist())), DIM
            )
            for q in base
        ]
        origins = [a.random_origin(rng) for _ in queries]
        assert_equiv(a, b, origins, queries, None, patience=6)


class TestSharedWalk:
    """Past the home nothing depends on the origin: groups that reach one
    home with one content ride one walk, and each result is materialised
    from it with the group's own ``route_hops`` as the ``hops`` offset."""

    @pytest.mark.parametrize("direction", ["both", "up", "down"])
    def test_one_content_many_origins(self, direction):
        rng, a, b = twin_worlds(61, capacity=1, n_nodes=80, n_items=40)
        q = random_queries(rng, 1, dup_every=0)[0]
        # The home itself rides along: a zero-hop route beside the rest.
        origins = [a.overlay.home(a.query_key(q))] + list(a.overlay.ring)[::8]
        assert len(origins) >= 8
        for amount in (None, 1, 3):
            for max_walk in (None, 1, 3):
                seq, _ = assert_equiv(
                    a, b, origins, [q] * len(origins), amount,
                    patience=5, max_walk=max_walk, direction=direction,
                )
                # The shared hit list is offset per group, not copied.
                assert len({r.route_hops for r in seq}) >= 3

    def test_start_keys_sharing_a_home_share_a_walk(self):
        rng, a, b = twin_worlds(63, capacity=1, n_items=40, obs=True)
        q = random_queries(rng, 1, dup_every=0)[0]
        home = next(n for n in a.overlay.ring if a.overlay.home(n + 1) == n)
        keys = [home, home + 1]
        origin = a.overlay.ring.at(20)
        seq = [retrieve(a, origin, q, None, patience=5, start_key=k) for k in keys]
        bat = retrieve_many(b, origin, [q, q], None, patience=5, start_keys=keys)
        assert [snap(r) for r in seq] == [snap(r) for r in bat]
        counters = b.network.obs.metrics.counters
        assert counters["retrieve.batch.groups"] == 2
        assert counters["retrieve.batch.walks"] == 1
        assert a.network.sink.snapshot() == b.network.sink.snapshot()

    @pytest.mark.parametrize("amount", [None, 2])
    def test_obs_on_bill_parity(self, amount):
        """net.sent.retrieve, the whole net.node_inbox bucket and the
        MetricSink equal N scalar retrieves, duplicates included."""
        rng, a, b = twin_worlds(65, capacity=1, n_items=40, obs=True)
        queries = random_queries(rng, 24, dup_every=3)
        pool = [a.random_origin(rng) for _ in range(4)]
        origins = [pool[i % 4] for i in range(len(queries))]
        before = dict(a.network.obs.metrics.buckets["net.node_inbox"])
        _, bat = assert_equiv(a, b, origins, queries, amount, patience=5)
        ma, mb = a.network.obs.metrics, b.network.obs.metrics
        assert mb.counters["retrieve.batch.replayed"] > 0
        assert ma.counters["net.sent.retrieve"] == mb.counters["net.sent.retrieve"]
        assert ma.buckets["net.node_inbox"] == mb.buckets["net.node_inbox"]
        assert ma.buckets["net.node_inbox"] != before
        assert a.network.sink.snapshot() == b.network.sink.snapshot()
        assert sum(r.messages - r.reply_messages for r in bat) == (
            mb.counters["net.sent.retrieve"]
        )

    def test_results_do_not_alias(self):
        """Same walk, same group or duplicate member: every result owns
        its ``discoveries`` and ``visited`` lists."""
        rng, _, b = twin_worlds(67, capacity=1, n_items=40)
        q = random_queries(rng, 1, dup_every=0)[0]
        ring = list(b.overlay.ring)
        origins = [ring[0], ring[0], ring[15], ring[30]]
        bat = retrieve_many(b, origins, [q] * 4, None, patience=5)
        want = [snap(r) for r in bat]
        assert want[0][0] and len(want[0][5]) > 1
        for i, r in enumerate(bat):
            r.discoveries.clear()
            r.visited.append(-1)
            assert [snap(o) for o in bat[i + 1 :]] == want[i + 1 :]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_origins=st.integers(1, 6),
    dup_every=st.sampled_from([0, 2, 3, 5]),
    amount=st.sampled_from([None, 1, 2, 5]),
    patience=st.integers(1, 6),
)
def test_random_storms_match_the_sequential_loop(
    seed, n_origins, dup_every, amount, patience
):
    rng, a, b = twin_worlds(seed, capacity=2, n_nodes=24, n_items=30)
    queries = random_queries(rng, 16, dup_every=dup_every)
    pool = [a.random_origin(rng) for _ in range(n_origins)]
    origins = [pool[int(rng.integers(0, n_origins))] for _ in queries]
    assert_equiv(a, b, origins, queries, amount, patience=patience)
    assert a.network.sink.snapshot() == b.network.sink.snapshot()


class TestWalkModes:
    def test_wraparound_homes(self):
        """Homes at the extremes of the key space: the half-circle walk
        order must match, including the no-wrap stop."""
        rng, a, b = twin_worlds(9)
        queries = random_queries(rng, 6, dup_every=0)
        origins = [a.random_origin(rng) for _ in queries]
        for start_key in (0, 1, SPACE.modulus - 1, SPACE.modulus // 2):
            assert_equiv(
                a, b, origins, queries, None, patience=4, start_key=start_key
            )

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_directional_sweeps(self, direction):
        rng, a, b = twin_worlds(13)
        queries = random_queries(rng, 8)
        origins = [a.random_origin(rng) for _ in queries]
        for start_key in (120, 5000, 9800):
            assert_equiv(
                a, b, origins, queries, None,
                patience=3, start_key=start_key, direction=direction,
            )

    @pytest.mark.parametrize("max_walk", [0, 1, 5])
    def test_max_walk_cap(self, max_walk):
        rng, a, b = twin_worlds(17)
        queries = random_queries(rng, 10)
        origins = [a.random_origin(rng) for _ in queries]
        for amount in (2, None):
            assert_equiv(
                a, b, origins, queries, amount, patience=4, max_walk=max_walk
            )

    def test_require_all_and_min_score(self):
        rng, a, b = twin_worlds(21)
        queries = random_queries(rng, 8)
        origins = [a.random_origin(rng) for _ in queries]
        kw = int(queries[0].indices[0])
        assert_equiv(
            a, b, origins, queries, None,
            patience=6, require_all=[kw], min_score=0.2,
        )


class TestFallbacks:
    def _storm(self, system, origins, queries, amount):
        out = []
        for o, q in zip(origins, queries):
            out.append(system.retrieve(o, q, amount))
        return out

    def test_degraded_shed_home_equivalence(self):
        """With admission control the engine must fall back to the exact
        sequential loop — shedding/diversion state evolves identically,
        so even degraded results match query for query."""
        rng, a, b = twin_worlds(31)
        policy = OverloadPolicy(service_rate=1e-9, queue_cap=2, breaker_threshold=4)
        for s in (a, b):
            s.network.attach_admission(AdmissionController(policy))
        queries = random_queries(rng, 20)
        origins = [a.random_origin(rng) for _ in queries]
        seq = [retrieve(a, o, q, 2) for o, q in zip(origins, queries)]
        bat = retrieve_many(b, origins, queries, 2)
        assert [snap(r) for r in seq] == [snap(r) for r in bat]
        assert any(r.degraded for r in bat)  # the storm really shed

    @pytest.mark.parametrize(
        "reason", ["pointers", "admission", "link_faults", "replication", "retry"]
    )
    def test_each_reason_announces_itself(self, reason):
        """A fallback counts its queries under exactly its own reason and
        bills what the sequential loop bills, nothing more."""
        config = {
            "pointers": dict(directory_pointers=True),
            "replication": dict(replication_factor=2),
        }.get(reason, {})
        rng, a, b = twin_worlds(33, obs=True, **config)
        for s in (a, b):
            if reason == "admission":
                s.network.attach_admission(AdmissionController(OverloadPolicy()))
            elif reason == "link_faults":
                s.network.attach_link_faults(LinkFaultPlane(seed=1))
            elif reason == "retry":
                s.config = dataclasses.replace(s.config, retry_policy=RetryPolicy())
        queries = random_queries(rng, 8)
        origins = [a.random_origin(rng) for _ in queries]
        fn = retrieve_with_pointers if reason == "pointers" else retrieve
        seq = [fn(a, o, q, 2) for o, q in zip(origins, queries)]
        bat = retrieve_many(b, origins, queries, 2)
        assert [snap(r) for r in seq] == [snap(r) for r in bat]
        assert a.network.sink.snapshot() == b.network.sink.snapshot()
        batch_counters = {
            k: v
            for k, v in b.network.obs.metrics.counters.items()
            if k.startswith("retrieve.batch.")
        }
        assert batch_counters == {f"retrieve.batch.fallback.{reason}": 8}


class TestValidation:
    def test_bad_arguments(self):
        _, a, _ = twin_worlds(1, n_nodes=4, n_items=2)
        q = SparseVector.from_mapping({1: 1.0}, DIM)
        with pytest.raises(ValueError):
            retrieve_many(a, 0, [q], amount=0)
        with pytest.raises(ValueError):
            retrieve_many(a, 0, [q], amount=1, patience=0)
        with pytest.raises(ValueError):
            retrieve_many(a, [1, 2], [q], amount=1)

    @pytest.mark.parametrize("obs", [False, True])
    def test_charge_bulk_length_mismatch(self, obs):
        network = make_system([1, 2], obs=obs).network
        with pytest.raises(ValueError):
            network.charge_bulk("retrieve", 3, [1, 2])
        with pytest.raises(ValueError):
            network.charge_bulk("retrieve", 0, [1])
        assert network.sink.count("retrieve") == 0
        network.charge_bulk("retrieve", 2, [1, 2])
        network.charge_bulk("retrieve", 2)
        assert network.sink.count("retrieve") == 4

    def test_empty_batch(self):
        _, a, _ = twin_worlds(1, n_nodes=4, n_items=2)
        assert retrieve_many(a, 0, [], amount=1) == []

    def test_batch_span_and_metrics(self):
        obs = Observability()
        rng = np.random.default_rng(41)
        node_ids = sorted(rng.choice(10_000, size=20, replace=False).tolist())
        network = Network(obs=obs)
        overlay = TornadoOverlay(SPACE, network)
        system = Meteorograph(
            space=SPACE, network=network, overlay=overlay, dim=DIM,
            config=MeteorographConfig(scheme=PlacementScheme.NONE),
            equalizer=None,
        )
        for nid in node_ids:
            overlay.add_node(nid)
        system.publish(node_ids[0], 1, [3, 5], [1.0, 2.0])
        queries = random_queries(rng, 6)
        retrieve_many(system, node_ids[0], queries, 1)
        assert obs.tracer.depth == 0
        assert any(s.kind == "retrieve_batch" for s in obs.tracer.roots)
        ms = obs.metrics.snapshot()
        assert ms["counters"]["retrieve.batch.queries"] == 6
        assert "kernel.retrieve_batch" in ms["timers"]


class TestFacade:
    def test_use_first_hop_bucketing(self):
        """Facade batching with first-hop start keys must equal the
        sequential facade path query for query."""
        rng = np.random.default_rng(51)
        trace_items = 200
        from repro.workload import WorldCupParams, generate_trace

        trace = generate_trace(
            WorldCupParams(n_items=trace_items, n_keywords=120), seed=8
        )
        sample_ids = np.sort(rng.choice(trace_items, 40, replace=False))
        systems = []
        for _ in range(2):
            systems.append(
                Meteorograph.build(
                    50,
                    trace.corpus.dim,
                    rng=np.random.default_rng(5),
                    sample=trace.corpus.subsample(sample_ids),
                    config=MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH),
                )
            )
            systems[-1].publish_corpus(trace.corpus, np.random.default_rng(3))
        a, b = systems
        queries = []
        for _ in range(12):
            iid = int(rng.integers(0, trace_items))
            queries.append(trace.corpus.vector(iid))
        origins = [a.random_origin(rng) for _ in queries]
        seq = [
            a.retrieve(o, q, 2, use_first_hop=True)
            for o, q in zip(origins, queries)
        ]
        bat = b.retrieve_many(origins, queries, 2, use_first_hop=True)
        assert [snap(r) for r in seq] == [snap(r) for r in bat]
