"""Unit tests for retrieval: ranked search, walks, exact-item lookup."""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.search import (
    Discovery,
    RetrieveResult,
    _walk_order,
    find_item,
    retrieve,
    retrieve_with_pointers,
)
from repro.obs import Observability
from repro.overload.admission import (
    AdmissionController,
    BackpressureError,
    OverloadPolicy,
)
from repro.overload.degrade import divert_home
from repro.overlay.base import RoutingError
from repro.overlay.idspace import KeySpace
from repro.overlay.tornado import TornadoOverlay
from repro.sim.linkfaults import LinkFaultPlane, MessageLossError
from repro.sim.network import Network
from repro.sim.node import StoredItem
from repro.vsm.sparse import SparseVector

DIM = 32
SPACE = KeySpace(10_000)


def make_system(
    node_ids, capacity=None, directory_pointers=False, obs=None, **config
) -> Meteorograph:
    network = Network(obs=obs)
    overlay = TornadoOverlay(SPACE, network)
    cfg = MeteorographConfig(
        scheme=PlacementScheme.NONE,
        node_capacity=capacity,
        directory_pointers=directory_pointers,
        **config,
    )
    system = Meteorograph(
        space=SPACE,
        network=network,
        overlay=overlay,
        dim=DIM,
        config=cfg,
        equalizer=None,
    )
    for nid in node_ids:
        overlay.add_node(nid, capacity=capacity)
    return system


def publish(system, item_id, kws, weights=None):
    w = [1.0] * len(kws) if weights is None else weights
    return system.publish(system.overlay.ring.at(0), item_id, kws, w)


def query(mapping):
    return SparseVector.from_mapping(mapping, DIM)


class TestRetrieve:
    def test_finds_published_item_by_own_vector(self):
        system = make_system(list(range(0, 10_000, 250)))
        publish(system, 1, [3, 5], [1.0, 2.0])
        res = retrieve(system, 0, query({3: 1.0, 5: 2.0}), amount=1)
        assert res.found == 1
        assert res.discoveries[0].item_id == 1
        assert res.complete

    def test_amount_limits_results(self):
        system = make_system(list(range(0, 10_000, 250)))
        for i in range(6):
            publish(system, i, [3], [1.0 + i * 0.01])
        res = retrieve(system, 0, query({3: 1.0}), amount=3)
        assert res.found == 3

    def test_amount_none_finds_all_matching(self):
        system = make_system(list(range(0, 10_000, 250)))
        for i in range(6):
            publish(system, i, [3], [1.0 + i * 0.05])
        res = retrieve(system, 0, query({3: 1.0}), amount=None, patience=40)
        assert res.found == 6

    def test_incomplete_flagged_when_too_few_exist(self):
        system = make_system(list(range(0, 10_000, 250)))
        publish(system, 1, [3])
        res = retrieve(system, 0, query({3: 1.0}), amount=5, max_walk=10)
        assert res.found == 1
        assert not res.complete

    def test_require_all_filters(self):
        system = make_system(list(range(0, 10_000, 250)))
        publish(system, 1, [3, 4])
        publish(system, 2, [3])
        res = retrieve(
            system, 0, query({3: 1.0, 4: 1.0}), amount=None, require_all=[3, 4],
            patience=40,
        )
        assert [d.item_id for d in res.discoveries] == [1]

    def test_walk_hops_counted_and_charged(self):
        system = make_system(list(range(0, 10_000, 250)))
        for i in range(4):
            publish(system, i, [3])
        before = system.network.sink.count("retrieve")
        res = retrieve(system, 0, query({3: 1.0}), amount=None, patience=5)
        charged = system.network.sink.count("retrieve") - before
        assert charged == res.route_hops + res.walk_hops

    def test_start_key_overrides_query_key(self):
        system = make_system(list(range(0, 10_000, 250)))
        # Item has many keywords; a one-keyword query's own angle key is
        # far from the item's — the §3.5.1 mismatch.
        publish(system, 1, list(range(3, 19)))
        item_key = system.published_key_of(1)
        q = query({3: 1.0})
        assert abs(system.query_key(q) - item_key) > 250  # keys truly differ
        missed = retrieve(system, 0, q, amount=None, require_all=[3], patience=1)
        found = retrieve(
            system, 0, q, amount=None, require_all=[3],
            start_key=item_key, patience=1,
        )
        assert found.found == 1
        assert missed.found == 0

    def test_direction_up_only_walks_successors(self):
        system = make_system([1000, 2000, 3000, 4000])
        res = retrieve(
            system, 1000, query({3: 1.0}), amount=None,
            start_key=2000, direction="up", patience=1,
        )
        assert all(v >= 2000 for v in res.visited)

    def test_validation(self):
        system = make_system([1000])
        with pytest.raises(ValueError):
            retrieve(system, 1000, query({1: 1.0}), amount=0)
        with pytest.raises(ValueError):
            retrieve(system, 1000, query({1: 1.0}), amount=1, patience=0)

    def test_per_item_hops_grow_along_walk(self):
        system = make_system(list(range(0, 10_000, 100)), capacity=1)
        # Same key for all items → displacement spreads them over neighbors.
        for i in range(8):
            publish(system, i, [3], [1.0])
        res = retrieve(system, 0, query({3: 1.0}), amount=None, patience=20)
        hops = [d.hops for d in sorted(res.discoveries, key=lambda d: d.hops)]
        assert res.found == 8
        assert hops[0] <= hops[-1]


def reference_retrieve(
    system, origin, query, amount, *, patience=8, max_walk=None, direction="both"
):
    """The pre-columnar, closure-and-generator ``retrieve``, kept as the
    oracle: one ``ScoredItem`` per hit, a ``Discovery`` built inside the
    seen-set loop, liveness through ``_walk_order``.  Handles the same
    hostile fabric as the loop it mirrors: a shed home diverts, a shed
    or lost walk consult is billed and skipped."""
    degradation = 0
    try:
        route = system.deliver_home(origin, system.query_key(query), kind="retrieve")
        home, route_hops = route.home, route.hops
    except BackpressureError as exc:
        home, route_hops, degradation = divert_home(
            system, system.query_key(query), kind="retrieve", origin=origin,
            exclude=(exc.node_id,),
        )
        if home is None:
            return RetrieveResult(
                route_hops=route_hops, complete=False, degradation_level=degradation
            )
    result = RetrieveResult(route_hops=route_hops, degradation_level=degradation)
    seen_items = set()
    tracer = system.network.obs.tracer

    def harvest(node_id, hops_here):
        remaining = None if amount is None else amount - len(result.discoveries)
        hits = system.state(node_id).index.query(query, limit=remaining)
        fresh = 0
        for h in hits:
            if h.item.item_id in seen_items:
                continue
            seen_items.add(h.item.item_id)
            result.discoveries.append(
                Discovery(h.item.item_id, node_id, h.score, hops_here)
            )
            fresh += 1
        if fresh:
            result.reply_messages += 1
        return fresh

    result.visited.append(home)
    harvest(home, route_hops)
    dry = walked = 0
    current = home
    for neighbor in _walk_order(system, home, direction):
        if amount is not None and len(result.discoveries) >= amount:
            break
        if max_walk is not None and walked >= max_walk:
            result.complete = amount is None
            break
        if amount is None and dry >= patience:
            break
        try:
            system.network.send(current, neighbor, kind="retrieve")
        except (BackpressureError, MessageLossError):
            walked += 1
            result.walk_hops += 1
            dry += 1
            continue
        current = neighbor
        walked += 1
        result.walk_hops += 1
        result.visited.append(neighbor)
        fresh = harvest(neighbor, route_hops + walked)
        if tracer.enabled:
            tracer.event("walk", node=neighbor, fresh=fresh)
        dry = 0 if fresh else dry + 1
    if amount is not None and len(result.discoveries) < amount:
        result.complete = False
    return result


class TestHarvestFoldAgainstReference:
    """The columnar harvest fold ≡ the per-hit loop it replaced, on twin
    rings with ``replication_factor=3`` so the same item sits on several
    nodes of one walk: the seen-set drops the later copies, and a node
    whose prefix of ``amount`` holds only already-seen items replies
    nothing and still consumed its budget."""

    KW_POOL = 10

    def twins(self, seed):
        rng = np.random.default_rng(seed)
        node_ids = sorted(rng.choice(10_000, size=30, replace=False).tolist())
        systems = [make_system(node_ids, replication_factor=3) for _ in range(2)]
        for item_id in range(80):
            k = int(rng.integers(1, 4))
            kws = sorted(rng.choice(self.KW_POOL, size=k, replace=False).tolist())
            ws = np.round(rng.uniform(0.5, 2.0, size=k), 3).tolist()
            for s in systems:
                s.publish(s.overlay.ring.at(0), item_id, kws, ws)
        return rng, systems[0], systems[1]

    def rand_query(self, rng):
        k = int(rng.integers(1, 4))
        kws = rng.choice(self.KW_POOL, size=k, replace=False).tolist()
        return query(dict(zip(kws, rng.uniform(0.5, 2.0, size=k).tolist())))

    @pytest.mark.parametrize("seed", [0, 5, 99])
    @pytest.mark.parametrize("direction", ["both", "up", "down"])
    def test_every_field_matches(self, seed, direction):
        rng, a, b = self.twins(seed)
        duplicates_skipped = 0
        for _ in range(6):
            q = self.rand_query(rng)
            origin = a.random_origin(rng)
            for amount in (None, 1, 3, 10):
                for max_walk in (None, 1, 3):
                    kwargs = dict(max_walk=max_walk, direction=direction)
                    want = reference_retrieve(a, origin, q, amount, **kwargs)
                    got = retrieve(b, origin, q, amount, **kwargs)
                    assert vars(got) == vars(want)
                    stored = sum(
                        len(b.state(n).index.query(q)) for n in got.visited
                    )
                    duplicates_skipped += amount is None and stored > got.found
        assert a.network.sink.snapshot() == b.network.sink.snapshot()
        # The seen-set really had work to do (a one-sided walk from an
        # edge home may meet no replica).
        assert duplicates_skipped or direction != "both"

    def test_seen_items_consume_the_amount_budget(self):
        system = make_system([1000, 2000, 3000])

        def stored(item_id, mapping, replica_of=None):
            ids = np.array(sorted(mapping), dtype=np.int64)
            w = np.array([mapping[i] for i in ids], dtype=np.float64)
            return StoredItem(item_id, 0, 0, ids, w, replica_of=replica_of)

        system.store_at(2000, stored(1, {4: 1.0}))
        system.store_at(2000, stored(2, {4: 1.0, 5: 1.0}))
        system.store_at(3000, stored(1, {4: 1.0}, replica_of=2000))
        system.store_at(3000, stored(3, {4: 1.0, 5: 2.0}))
        res = retrieve(
            system, 1000, query({4: 1.0}), 3, start_key=2000, direction="up"
        )
        # Node 3000 is asked for 3 - 2 = 1 hit; its best is the replica
        # of item 1, already seen — so it contributes nothing, sends no
        # reply, and item 3 stays undiscovered although budget remained.
        assert res.item_ids() == [1, 2]
        assert res.visited == [2000, 3000]
        assert res.reply_messages == 1 and not res.complete
        everything = retrieve(
            system, 1000, query({4: 1.0}), None, start_key=2000, direction="up"
        )
        assert everything.item_ids() == [1, 2, 3]
        assert [d.node_id for d in everything.discoveries] == [2000, 2000, 3000]
        assert everything.reply_messages == 2

    def test_dry_visits_bill_no_reply(self):
        system = make_system([1000, 2000, 3000, 4000])
        publish(system, 1, [5])
        res = retrieve(system, 1000, query({9: 1.0}), None, patience=2)
        assert res.discoveries == [] and res.reply_messages == 0
        assert res.walk_hops == 2 and len(res.visited) == 3
        assert res.messages == res.route_hops + 2


class TestFlatWalkUnderHostileFabric:
    """``retrieve_columns``' one-frame walk ≡ the closure-and-generator
    loop it replaced when the fabric fights back: twin rings with dead
    nodes on the frontier, under a seeded 15 % link loss and under an
    admission controller tight enough to shed.  Both run the *same*
    loop (one ``Network.send`` per message), so every result field, the
    message bill and the fabric's own counters must agree."""

    KW_POOL = 10
    FABRICS = ["lossy", "shedding"]

    def twins(self, seed, fabric, observed=False):
        rng = np.random.default_rng(seed)
        node_ids = sorted(rng.choice(10_000, size=30, replace=False).tolist())
        systems = [
            make_system(
                node_ids, replication_factor=3,
                obs=Observability() if observed else None,
            )
            for _ in range(2)
        ]
        for item_id in range(80):
            k = int(rng.integers(1, 4))
            kws = sorted(rng.choice(self.KW_POOL, size=k, replace=False).tolist())
            ws = np.round(rng.uniform(0.5, 2.0, size=k), 3).tolist()
            for s in systems:
                s.publish(s.overlay.ring.at(0), item_id, kws, ws)
        # Dead nodes the membership caches still list: the walk frontier
        # must skip them at consumption time.
        dead = rng.choice(node_ids, size=5, replace=False).tolist()
        for s in systems:
            for nid in dead:
                s.network.fail_node(nid)
            if fabric == "lossy":
                s.network.attach_link_faults(LinkFaultPlane(seed, drop_prob=0.15))
            else:
                s.network.attach_admission(AdmissionController(
                    # A late breaker keeps homes admitting long enough for
                    # the *walk's* consults to be the ones that shed.
                    OverloadPolicy(service_rate=0.02, queue_cap=2, breaker_threshold=64),
                    s.network.obs,
                ))
        return rng, systems[0], systems[1]

    @staticmethod
    def fabric_snapshot(system):
        net = system.network
        if net.link_faults is not None:
            return net.link_faults.snapshot()
        adm = net.admission
        return {"clock": adm.clock, "admitted": adm.admitted, "sheds": adm.sheds}

    def rand_query(self, rng):
        k = int(rng.integers(1, 4))
        kws = rng.choice(self.KW_POOL, size=k, replace=False).tolist()
        return query(dict(zip(kws, rng.uniform(0.5, 2.0, size=k).tolist())))

    def drive(self, rng, a, b, direction, rounds=5):
        """Same calls on both twins; returns how many walk consults were
        shed or lost (billed hops that visited nobody)."""
        skipped = 0
        for _ in range(rounds):
            q = self.rand_query(rng)
            origin = a.random_origin(rng)
            for amount in (None, 1, 3, 10):
                for max_walk in (None, 1, 3):
                    kwargs = dict(max_walk=max_walk, direction=direction)
                    want = reference_retrieve(a, origin, q, amount, **kwargs)
                    got = retrieve(b, origin, q, amount, **kwargs)
                    assert vars(got) == vars(want)
                    alive = b.network.is_alive
                    assert all(alive(n) for n in got.visited)
                    skipped += got.walk_hops - max(0, len(got.visited) - 1)
        assert a.network.sink.snapshot() == b.network.sink.snapshot()
        assert self.fabric_snapshot(a) == self.fabric_snapshot(b)
        return skipped

    @pytest.mark.parametrize("fabric", FABRICS)
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("direction", ["both", "up", "down"])
    def test_every_field_and_the_bill_match(self, fabric, seed, direction):
        rng, a, b = self.twins(seed, fabric)
        skipped = self.drive(rng, a, b, direction)
        snap = self.fabric_snapshot(b)
        assert snap.get("dropped", snap.get("sheds")) > 0
        # The except branch of the walk really ran.
        assert skipped

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_observability_sees_the_same_walk(self, fabric):
        rng, a, b = self.twins(7, fabric, observed=True)
        self.drive(rng, a, b, "both", rounds=3)
        ma, mb = a.network.obs.metrics, b.network.obs.metrics
        assert mb.counters["net.sent.retrieve"] == ma.counters["net.sent.retrieve"]
        assert mb.counters["net.sent.retrieve"] == b.network.sink.snapshot()["retrieve"]
        assert mb.buckets["net.node_inbox"] == ma.buckets["net.node_inbox"]
        walks = [
            [(e.attrs["node"], e.attrs["fresh"]) for e in s.network.obs.tracer.find("walk")]
            for s in (a, b)
        ]
        assert walks[0] == walks[1] and walks[0]


class TestFindItem:
    def test_find_at_home(self):
        system = make_system(list(range(0, 10_000, 250)))
        publish(system, 1, [3])
        res = find_item(system, 0, 1)
        assert res.found
        assert res.total_hops == res.closest_hops

    def test_find_displaced_item_walks(self):
        system = make_system(list(range(0, 10_000, 250)), capacity=1)
        for i in range(5):
            publish(system, i, [3])  # same key → displacement chains
        for i in range(5):
            res = find_item(system, 0, i)
            assert res.found, i
        # At least one item is off-home.
        offs = [find_item(system, 0, i) for i in range(5)]
        assert any(r.total_hops > r.closest_hops for r in offs)

    def test_find_unknown_item_raises(self):
        system = make_system([1000])
        with pytest.raises(KeyError):
            find_item(system, 1000, 99)

    def test_find_respects_max_walk(self):
        system = make_system(list(range(0, 10_000, 250)), capacity=1)
        for i in range(5):
            publish(system, i, [3])
        hardest = max(range(5), key=lambda i: find_item(system, 0, i).total_hops)
        res = find_item(system, 0, hardest, max_walk=0)
        if find_item(system, 0, hardest).total_hops > find_item(system, 0, hardest).closest_hops:
            assert not res.found


class TestPointerRetrieve:
    def test_pointer_mode_requires_config(self):
        system = make_system([1000])
        with pytest.raises(RuntimeError):
            retrieve_with_pointers(system, 1000, query({1: 1.0}), amount=1)

    def test_pointer_search_finds_items(self):
        system = make_system(list(range(0, 10_000, 250)), directory_pointers=True)
        for i in range(5):
            publish(system, i, [3, 4 + i])
        res = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=None, require_all=[3], patience=20
        )
        assert res.found == 5
        assert res.fetch_hops >= 0
        assert res.reply_messages >= 1

    def test_pointer_amount_stops_fetching(self):
        system = make_system(list(range(0, 10_000, 250)), directory_pointers=True)
        for i in range(8):
            publish(system, i, [3])
        res = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=2, require_all=[3], patience=20
        )
        assert res.found == 2

    def test_pointer_messages_include_fetch_routes(self):
        system = make_system(list(range(0, 10_000, 250)), directory_pointers=True)
        publish(system, 1, [3])
        res = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=1, require_all=[3], patience=20
        )
        assert res.messages == (
            res.route_hops + res.walk_hops + res.fetch_hops + res.reply_messages
        )

    def test_keyword_overlap_filter_without_require_all(self):
        system = make_system(list(range(0, 10_000, 250)), directory_pointers=True)
        publish(system, 1, [3])
        publish(system, 2, [9])
        res = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=None, patience=20
        )
        assert 1 in res.item_ids()

    def test_fetch_walk_replies_are_counted(self):
        # With capacity 1 the bodies displace onto the home's neighbors
        # while every pointer stays on the angle home.  Each stage-2
        # walk node that contributes items sends one reply — the same
        # accounting as retrieve's walk, so §3.5.2 totals compare.
        system = make_system(
            list(range(0, 10_000, 250)), capacity=1, directory_pointers=True
        )
        for i in range(4):
            publish(system, i, [3])
        res = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=None, require_all=[3], patience=20
        )
        assert res.found == 4
        holders = sum(1 for n in system.network.nodes() if len(n))
        assert res.reply_messages == holders  # one reply per contributing node

    def test_fetch_walk_honors_max_walk(self):
        system = make_system(
            list(range(0, 10_000, 250)), capacity=1, directory_pointers=True
        )
        for i in range(8):
            publish(system, i, [3])
        # Wide walk, tiny patience: the old fixed max(patience, 4) cap
        # would stop the displacement walk after 4 neighbors and miss
        # bodies; the caller's max_walk is what bounds it.
        wide = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=None, require_all=[3],
            patience=2, max_walk=10,
        )
        assert wide.found == 8
        # Conversely a tight max_walk really limits the fetch walk:
        # the terminal node plus the two walked neighbors.
        narrow = retrieve_with_pointers(
            system, 0, query({3: 1.0}), amount=None, require_all=[3],
            patience=20, max_walk=2,
        )
        assert narrow.found == 3


class TestSpanHygiene:
    """Retrieval spans must close even when routing raises mid-protocol —
    a leaked open frame would corrupt every span recorded afterwards."""

    def traced(self, **kwargs):
        obs = Observability()
        system = make_system(
            list(range(0, 10_000, 500)), obs=obs, **kwargs
        )
        return system, obs.tracer

    def test_retrieve_span_closes_on_success(self):
        system, tracer = self.traced()
        publish(system, 1, [3])
        retrieve(system, 0, query({3: 1.0}), amount=1)
        assert tracer.depth == 0
        spans = [s for s in tracer.roots if s.kind == "retrieve"]
        assert spans and all(s.finished for s in spans)

    def test_retrieve_span_closes_on_routing_error(self):
        system, tracer = self.traced()
        system.network.node(0).fail()
        with pytest.raises(RoutingError):
            retrieve(system, 0, query({3: 1.0}), amount=1)
        assert tracer.depth == 0
        assert all(s.finished for s in tracer.iter_spans())

    def test_pointer_span_closes_on_routing_error(self):
        system, tracer = self.traced(directory_pointers=True)
        system.network.node(0).fail()
        with pytest.raises(RoutingError):
            retrieve_with_pointers(system, 0, query({3: 1.0}), amount=1)
        assert tracer.depth == 0
        assert all(s.finished for s in tracer.iter_spans())
