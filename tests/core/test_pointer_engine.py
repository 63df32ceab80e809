"""§3.5.2 directory pointers through the read engine.

Stage 1 of the pointer protocol is the engine's walk over the nodes'
pointer rows (``PeerNode.pointers``); stage 2 is its fetch loop.  On
twin systems, ``retrieve`` and ``retrieve_many`` under pointers must
equal :func:`oracle_retrieve_with_pointers` — the hand-written protocol
with its per-visit pointer scan — run query by query, on every result
field and on the message bill, across capacity, ``amount``,
``require_all``, first-hop, ``patience``, ``max_walk``, dead frontier
nodes and each configuration the engine runs unshared.

Where the two differ on purpose, a test here pins the engine's rule:
stage 1 promises only rows stage 2 can return, and it counts distinct
items, not pointers.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pointer_oracle import oracle_retrieve_with_pointers
from test_search import make_system, publish, query

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.search import retrieve_with_pointers
from repro.maint.retry import RetryPolicy
from repro.overload import AdmissionController, OverloadPolicy
from repro.overlay.idspace import KeySpace
from repro.sim.linkfaults import LinkFaultPlane
from repro.sim.node import StoredItem
from repro.workload import WorldCupParams, generate_trace

CORPUS = generate_trace(
    WorldCupParams(n_items=40, n_keywords=30, mean_basket=5.0), seed=11
).corpus
SPACE = KeySpace(1 << 16)
REASONS = [None, "admission", "link_faults", "replication", "retry"]


def twins(seed, capacity, reason, n_dead):
    """Two identically built, published and faulted pointer systems."""
    config = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH,
        node_capacity=capacity,
        directory_pointers=True,
        replication_factor=2 if reason == "replication" else 1,
    )
    systems = []
    for _ in range(2):
        s = Meteorograph.build(
            24, CORPUS.dim, rng=np.random.default_rng(seed), space=SPACE,
            sample=CORPUS, config=config,
        )
        s.publish_corpus(CORPUS, np.random.default_rng(seed + 1))
        dead = np.random.default_rng(seed + 2).choice(
            list(s.overlay.ring), size=n_dead, replace=False
        )
        for nid in dead.tolist():
            s.network.fail_node(nid)
        if reason == "admission":
            s.network.attach_admission(AdmissionController(
                OverloadPolicy(service_rate=0.02, queue_cap=2, breaker_threshold=64),
                s.network.obs,
            ))
        elif reason == "link_faults":
            s.network.attach_link_faults(LinkFaultPlane(seed, drop_prob=0.15))
        elif reason == "retry":
            s.config = dataclasses.replace(s.config, retry_policy=RetryPolicy())
        systems.append(s)
    return systems


def fabric(system):
    net = system.network
    if net.link_faults is not None:
        return net.link_faults.snapshot()
    if net.admission is not None:
        adm = net.admission
        return {"clock": adm.clock, "admitted": adm.admitted, "sheds": adm.sheds}
    return None


class TestPointerTwin:
    @settings(max_examples=max(1, settings.default.max_examples // 4), deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        capacity=st.sampled_from([None, 1, 2]),
        reason=st.sampled_from(REASONS),
        n_dead=st.sampled_from([0, 3]),
        amount=st.sampled_from([None, 1, 5]),
        patience=st.integers(1, 6),
        max_walk=st.sampled_from([None, 0, 2, 6]),
        first_hop=st.booleans(),
        rows=st.lists(st.integers(0, CORPUS.n_items - 1), min_size=1, max_size=6),
        required=st.integers(0, 3),
        entry=st.sampled_from(["retrieve", "retrieve_many"]),
    )
    def test_engine_equals_the_oracle(
        self, seed, capacity, reason, n_dead, amount, patience, max_walk,
        first_hop, rows, required, entry,
    ):
        a, b = twins(seed, capacity, reason, n_dead)
        queries = [CORPUS.vector(r) for r in rows]
        options = dict(patience=patience, max_walk=max_walk)
        if required:
            # A subset of every query's keywords: the stage-1 scan and
            # the row predicate then agree (see TestStageOnePredicate).
            need = set(queries[0].indices.tolist()[:required])
            queries = [q for q in queries if need <= set(q.indices.tolist())]
            options["require_all"] = sorted(need)
        live = [n for n in a.overlay.ring if a.network.is_alive(n)]
        origin = live[seed % len(live)]
        keys, directions = a._start_columns(queries, {}, first_hop)
        want = [
            oracle_retrieve_with_pointers(
                a, origin, q, amount, start_key=k, direction=d, **options
            )
            for q, k, d in zip(queries, keys, directions)
        ]
        if entry == "retrieve":
            got = [
                b.retrieve(origin, q, amount, use_first_hop=first_hop, **options)
                for q in queries
            ]
        else:
            got = b.retrieve_many(
                origin, queries, amount, use_first_hop=first_hop, **options
            )
        assert [vars(r) for r in got] == [vars(r) for r in want]
        assert b.network.sink.snapshot() == a.network.sink.snapshot()
        assert fabric(b) == fabric(a)


class TestStageOnePredicate:
    """Stage 1 promises exactly the rows stage 2 can return: a positive
    score (so at least one shared keyword) of at least ``min_score``,
    and every ``require_all`` keyword.  The old scan checked
    ``require_all`` alone, so a pointer naming the required keyword but
    none of the query's was promised, and its body home fetched, walked
    and billed for nothing."""

    def bodies_off_home(self, kws):
        # Capacity 1: the six bodies displace onto the home's
        # neighbours while every pointer sits on one angle home.
        system = make_system(
            list(range(0, 10_000, 250)), capacity=1, directory_pointers=True
        )
        for i in range(6):
            publish(system, i, kws)
        return system

    def test_require_all_without_overlap_promises_nothing(self):
        system = self.bodies_off_home([2])
        before = system.network.sink.snapshot()
        res = retrieve_with_pointers(
            system, 0, query({1: 1.0}), None, require_all=[2], patience=20
        )
        billed = system.network.sink.count("retrieve") - before.get("retrieve", 0)
        assert res.found == 0
        assert res.fetch_hops == 0 and res.reply_messages == 0
        assert res.messages == res.route_hops + res.walk_hops == billed

    def test_min_score_is_a_row_predicate(self):
        system = self.bodies_off_home([2, 3])
        weak = query({2: 0.1, 5: 1.0})  # cosine with every item ≈ 0.07
        res = retrieve_with_pointers(
            system, 0, weak, None, min_score=0.5, patience=20
        )
        assert res.found == 0
        assert res.fetch_hops == 0 and res.reply_messages == 0
        # Without the threshold the same pointers are promised and fetched.
        hit = retrieve_with_pointers(system, 0, weak, None, patience=20)
        assert hit.found == 6 and hit.fetch_hops > 0


class TestDuplicatePointers:
    """An item republished under a new angle key leaves its old pointer
    behind, so one id can have pointers on two nodes.  Stage 1 counts
    distinct items, as the item walk does: a node whose only matching
    rows name items already promised is a dry visit, and it does not
    count toward ``amount``."""

    def system(self):
        system = make_system([1000, 2000, 3000, 4000], directory_pointers=True)

        def item(item_id, body_key):
            return StoredItem(
                item_id, body_key, 0, np.array([4]), np.array([1.0])
            )

        system.store_at(1000, item(1, 1000))
        system.store_at(4000, item(2, 4000))
        system.network.node(2000).add_pointer(item(1, 1000))
        system.network.node(3000).add_pointer(item(1, 1000))  # the stale copy
        system.network.node(4000).add_pointer(item(2, 4000))
        return system

    def test_a_repeated_id_is_a_dry_visit(self):
        res = retrieve_with_pointers(
            self.system(), 1000, query({4: 1.0}), 2,
            start_key=2000, direction="up", patience=2,
        )
        # Counting pointers, the sweep would stop at 3000 with "two"
        # promised and fetch one item; counting items it reaches 4000.
        assert res.visited == [2000, 3000, 4000]
        assert sorted(res.item_ids()) == [1, 2]
        assert res.complete

    def test_the_dry_visit_spends_patience(self):
        res = retrieve_with_pointers(
            self.system(), 1000, query({4: 1.0}), 2,
            start_key=2000, direction="up", patience=1,
        )
        assert res.visited == [2000, 3000]
        assert res.item_ids() == [1] and not res.complete
