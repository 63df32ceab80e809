"""Multi-probe retrieval — scalar/batch equivalence and merge semantics.

Pins the probe engine's contracts end to end on a real published
system: the facade dispatches to multi-probe under a multi-key scheme,
the batch form is element-wise identical to the scalar loop (the
``retrieve_many`` equivalence contract lifted through the band merge),
and the merged accounting is the sequential sum of the per-band bills.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.search import Discovery, RetrieveResult, retrieve
from repro.lsh import multi_probe_retrieve, multi_probe_retrieve_many
from repro.lsh.probe import _discovery_columns, _merge_bands
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 300
N_NODES = 60
BANDS = 3
WIDTH = 2


def reference_merge_bands(band_results, amount):
    """The pre-columnar merge, kept as the oracle: a dict of re-wrapped
    ``Discovery`` objects, first band wins, one ``sorted`` over the union."""
    merged = RetrieveResult()
    best = {}
    for r in band_results:
        offset = merged.messages
        for d in r.discoveries:
            if d.item_id not in best:
                best[d.item_id] = Discovery(
                    d.item_id, d.node_id, d.score, d.hops + offset
                )
        merged.route_hops += r.route_hops
        merged.walk_hops += r.walk_hops
        merged.fetch_hops += r.fetch_hops
        merged.reply_messages += r.reply_messages
        merged.visited.extend(r.visited)
        merged.degradation_level = max(
            merged.degradation_level, r.degradation_level
        )
    union = sorted(best.values(), key=lambda d: (-d.score, d.item_id))
    if amount is not None:
        merged.discoveries = union[:amount]
        merged.complete = len(union) >= amount
    else:
        merged.discoveries = union
        merged.complete = all(r.complete for r in band_results)
    return merged


def merge_bands(band_results, amount):
    """The columnar merge, fed the way ``multi_probe_retrieve_many`` feeds it."""
    return _merge_bands(
        band_results, [_discovery_columns(r.discoveries) for r in band_results], amount
    )


@st.composite
def band_results(draw):
    """2–5 bands over a small id pool (cross-band duplicates) and a
    small score pool (exact ties), some bands empty; ids unique within
    a band, as one walk's seen-set guarantees."""
    scores = st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0])
    bands = []
    for _ in range(draw(st.integers(2, 5))):
        ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=8))
        r = RetrieveResult(
            discoveries=[
                Discovery(
                    i, draw(st.integers(0, 9999)), draw(scores), draw(st.integers(0, 9))
                )
                for i in ids
            ],
            route_hops=draw(st.integers(0, 6)),
            walk_hops=draw(st.integers(0, 3)),
            reply_messages=draw(st.integers(0, 3)),
            visited=draw(st.lists(st.integers(0, 9999), min_size=1, max_size=3)),
            complete=draw(st.booleans()),
            degradation_level=draw(st.integers(0, 2)),
        )
        bands.append(r)
    return bands


@pytest.fixture(scope="module")
def corpus():
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=150), seed=41
    ).corpus


def build_lsh_system(corpus, **overrides):
    fields = dict(
        scheme=PlacementScheme.NONE,
        naming_scheme="cosine-lsh",
        lsh_bands=BANDS,
        lsh_band_bits=5,
        lsh_seed=3,
        lsh_probe_width=WIDTH,
    )
    fields.update(overrides)
    cfg = MeteorographConfig(**fields)
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(corpus.n_items, 50, replace=False))
    return Meteorograph.build(
        N_NODES,
        corpus.dim,
        rng=np.random.default_rng(9),
        sample=corpus.subsample(sample_ids),
        config=cfg,
    )


@pytest.fixture(scope="module")
def system(corpus):
    s = build_lsh_system(corpus)
    s.publish_corpus(corpus, np.random.default_rng(3), batch=True)
    return s


@pytest.fixture(scope="module")
def storm(corpus):
    rng = np.random.default_rng(17)
    ids = rng.choice(corpus.n_items, 24, replace=False)
    return [corpus.vector(int(i)) for i in ids]


class TestFacadeDispatch:
    def test_retrieve_goes_multiprobe(self, system, corpus):
        q = corpus.vector(0)
        origin = system.random_origin(np.random.default_rng(1))
        direct = multi_probe_retrieve(system, origin, q, 5)
        via_facade = system.retrieve(origin, q, 5)
        assert via_facade.item_ids() == direct.item_ids()
        assert via_facade.messages == direct.messages

    def test_first_hop_rejected(self, system, corpus):
        origin = system.random_origin(np.random.default_rng(1))
        with pytest.raises(RuntimeError, match="first-hop"):
            system.retrieve(origin, corpus.vector(0), 5, use_first_hop=True)

    @pytest.mark.parametrize(
        "option", [dict(max_walk=4), dict(patience=4), dict(start_key=17)]
    )
    def test_walk_options_rejected_by_name(self, system, corpus, option):
        # These used to reach multi_probe_retrieve[_many] as unexpected
        # keyword arguments and die with a raw TypeError.
        (name,) = option
        q = corpus.vector(0)
        with pytest.raises(ValueError, match=rf"{name} .*probe_width"):
            system.retrieve(0, q, 10, **option)
        with pytest.raises(ValueError, match=rf"{name} .*probe_width"):
            system.retrieve_many(0, [q, q], 10, **option)

    def test_per_query_start_keys_rejected(self, system, corpus):
        q = corpus.vector(0)
        with pytest.raises(ValueError, match="start_keys .*lsh_probe_width"):
            system.retrieve_many(0, [q, q], 10, start_keys=[1, 2])

    def test_probe_options_still_accepted(self, system, corpus):
        q = corpus.vector(0)
        origin = system.random_origin(np.random.default_rng(1))
        narrow = system.retrieve(origin, q, 5, probe_width=0, min_score=0.1)
        assert len(narrow.visited) == BANDS
        (batch,) = system.retrieve_many(origin, [q], 5, probe_width=0, min_score=0.1)
        assert vars(batch) == vars(narrow)

    def test_self_match_found(self, system, corpus):
        # A published corpus row queried verbatim collides with itself
        # in every band — the item must come back, ranked first.
        origin = system.random_origin(np.random.default_rng(2))
        for i in (1, 100, 250):
            res = system.retrieve(origin, corpus.vector(i), 5)
            assert res.discoveries
            assert res.discoveries[0].item_id == i


class TestScalarBatchEquivalence:
    def test_batch_matches_scalar_loop(self, system, storm):
        orng = np.random.default_rng(7)
        origins = [system.random_origin(orng) for _ in storm]
        scalar = [
            multi_probe_retrieve(system, o, q, 5)
            for o, q in zip(origins, storm)
        ]
        batch = multi_probe_retrieve_many(system, origins, storm, 5)
        assert len(batch) == len(scalar)
        for s, b in zip(scalar, batch):
            assert b.item_ids() == s.item_ids()
            assert b.messages == s.messages
            assert b.complete == s.complete
            for ds, db in zip(s.discoveries, b.discoveries):
                assert (ds.item_id, ds.node_id, ds.score, ds.hops) == (
                    db.item_id, db.node_id, db.score, db.hops
                )
            # Every field, including the order nodes were visited in.
            assert vars(b) == vars(s)

    def test_single_origin_broadcast(self, system, storm):
        origin = system.random_origin(np.random.default_rng(11))
        scalar = [multi_probe_retrieve(system, origin, q, 3) for q in storm]
        batch = multi_probe_retrieve_many(system, origin, storm, 3)
        for s, b in zip(scalar, batch):
            assert b.item_ids() == s.item_ids()
            assert b.messages == s.messages

    def test_empty_storm(self, system):
        assert multi_probe_retrieve_many(system, 0, [], 5) == []


class TestMergeAccounting:
    def test_messages_sum_over_bands(self, system, corpus):
        # The merged bill must equal the sum of the per-band retrieves
        # the probe engine actually ran (sequential-equivalent).
        q = corpus.vector(10)
        origin = system.random_origin(np.random.default_rng(3))
        keys = system.naming.probe_keys_for(q)
        assert len(keys) == BANDS
        bands = [
            retrieve(
                system, origin, q, None,
                patience=WIDTH + 1, max_walk=WIDTH, start_key=k,
            )
            for k in keys
        ]
        merged = multi_probe_retrieve(system, origin, q, None)
        assert merged.messages == sum(r.messages for r in bands)
        assert merged.route_hops == sum(r.route_hops for r in bands)
        assert merged.walk_hops == sum(r.walk_hops for r in bands)
        assert len(merged.visited) == sum(len(r.visited) for r in bands)

    def test_each_band_visits_width_plus_one(self, system, corpus):
        # patience = width+1 with max_walk = width means every band
        # consults exactly 1 + W nodes: the bounded-budget contract the
        # frontier experiment's message model relies on.
        q = corpus.vector(20)
        origin = system.random_origin(np.random.default_rng(4))
        res = multi_probe_retrieve(system, origin, q, None)
        assert len(res.visited) == BANDS * (1 + WIDTH)

    def test_union_ranked_and_cut(self, system, corpus):
        q = corpus.vector(30)
        origin = system.random_origin(np.random.default_rng(5))
        full = multi_probe_retrieve(system, origin, q, None)
        scores = [(-d.score, d.item_id) for d in full.discoveries]
        assert scores == sorted(scores)
        assert len(set(d.item_id for d in full.discoveries)) == full.found
        cut = multi_probe_retrieve(system, origin, q, 3)
        assert cut.discoveries == full.discoveries[:3]
        assert cut.complete == (full.found >= 3)

    def test_first_band_wins_duplicates(self):
        a = RetrieveResult()
        a.discoveries = [Discovery(7, 100, 0.9, 2)]
        a.route_hops, a.walk_hops, a.reply_messages = 3, 2, 1
        b = RetrieveResult()
        b.discoveries = [Discovery(7, 200, 0.9, 1), Discovery(8, 200, 0.5, 1)]
        b.route_hops = 2
        merged = merge_bands([a, b], None)
        by_id = {d.item_id: d for d in merged.discoveries}
        # Item 7's copy from band 0 wins; its hops carry no offset.
        assert by_id[7].node_id == 100
        assert by_id[7].hops == 2
        # Band 1's unique find is offset by band 0's 6 messages.
        assert by_id[8].hops == 1 + 6

    @settings(max_examples=200, deadline=None)
    @given(bands=band_results(), amount=st.sampled_from([None, 1, 4]))
    def test_columnar_merge_equals_reference(self, bands, amount):
        got = merge_bands(bands, amount)
        want = reference_merge_bands(bands, amount)
        # discoveries (winner's node_id, offset hops), complete, every
        # hop/reply total, visited, degradation_level.
        assert vars(got) == vars(want)
        assert got.messages == want.messages
        for d in got.discoveries:
            assert (type(d.item_id), type(d.node_id), type(d.score), type(d.hops)) == (
                int, int, float, int
            )

    def test_scalar_merge_equals_reference_on_a_ring(self, system, storm):
        # The scalar engine feeds the merge from walk columns, not from
        # Discovery objects: rebuild its bands with plain retrieves and
        # push them through the oracle.
        orng = np.random.default_rng(23)
        for q in storm[:8]:
            origin = system.random_origin(orng)
            bands = [
                retrieve(
                    system, origin, q, None,
                    patience=WIDTH + 1, max_walk=WIDTH, start_key=k,
                )
                for k in system.naming.probe_keys_for(q)
            ]
            for amount in (None, 1, 5):
                got = multi_probe_retrieve(system, origin, q, amount)
                assert vars(got) == vars(reference_merge_bands(bands, amount))

    def test_probe_width_zero_home_only(self, system, corpus):
        q = corpus.vector(40)
        origin = system.random_origin(np.random.default_rng(6))
        res = multi_probe_retrieve(system, origin, q, None, probe_width=0)
        assert len(res.visited) == BANDS
        assert res.walk_hops == 0

    def test_negative_probe_width_rejected(self, system, corpus):
        with pytest.raises(ValueError, match="probe_width"):
            multi_probe_retrieve(system, 0, corpus.vector(0), 5, probe_width=-1)


class TestConfigValidation:
    def test_lsh_requires_scheme_none(self, corpus):
        with pytest.raises(ValueError, match="scheme=NONE"):
            build_lsh_system(corpus, scheme=PlacementScheme.UNUSED_HASH)

    def test_lsh_rejects_replication(self, corpus):
        with pytest.raises(ValueError, match="replication"):
            build_lsh_system(corpus, replication_factor=2)

    def test_lsh_rejects_directory_pointers(self, corpus):
        with pytest.raises(ValueError, match="directory"):
            build_lsh_system(corpus, directory_pointers=True)

    def test_unknown_scheme_name(self, corpus):
        with pytest.raises(ValueError, match="naming scheme"):
            build_lsh_system(corpus, naming_scheme="simhash")


class TestStorageBudget:
    def test_l_copies_stored(self, system):
        # Each item publishes one copy per band; same-node duplicates
        # replace, so stored ≤ L·n with equality unless buckets collide
        # on one node.
        total = system.network.total_items()
        assert total <= BANDS * N_ITEMS
        assert total > (BANDS - 1) * N_ITEMS

    def test_deterministic_rebuild(self, corpus, system):
        twin = build_lsh_system(corpus)
        twin.publish_corpus(corpus, np.random.default_rng(3), batch=True)
        a = {n.node_id: frozenset(n.item_ids())
             for n in system.network.nodes() if len(n)}
        b = {n.node_id: frozenset(n.item_ids())
             for n in twin.network.nodes() if len(n)}
        assert a == b
