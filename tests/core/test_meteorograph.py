"""Integration-leaning unit tests for the Meteorograph facade."""

import numpy as np
import pytest

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import KeySpace
from repro.vsm.sparse import SparseVector
from repro.workload import keyword_query


@pytest.fixture(autouse=True)
def _bind_builder(build_system_fn):
    """Expose the conftest helper as a module global (tests/ is not a
    package, so a relative import cannot reach conftest directly)."""
    globals()["build_small_system"] = build_system_fn


class TestBuild:
    def test_build_creates_requested_nodes(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=50)
        assert system.overlay.size == 50
        assert system.network.alive_count() == 50

    def test_scheme_none_has_no_equalizer(self, tiny_trace):
        system = build_small_system(tiny_trace, scheme=PlacementScheme.NONE)
        assert system.equalizer is None

    def test_unused_hash_has_equalizer(self, tiny_trace):
        system = build_small_system(tiny_trace, scheme=PlacementScheme.UNUSED_HASH)
        assert system.equalizer is not None

    def test_equalizer_requires_sample(self, tiny_trace, rng):
        with pytest.raises(ValueError):
            Meteorograph.build(
                10, tiny_trace.corpus.dim, rng=rng,
                config=MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH),
            )

    def test_none_scheme_builds_without_sample(self, tiny_trace, rng):
        system = Meteorograph.build(
            10, tiny_trace.corpus.dim, rng=rng,
            config=MeteorographConfig(scheme=PlacementScheme.NONE),
        )
        assert system.first_hop is None

    def test_chord_overlay_kind(self, tiny_trace):
        system = build_small_system(tiny_trace, overlay_kind="chord")
        assert isinstance(system.overlay, ChordOverlay)

    def test_unknown_overlay_kind(self, tiny_trace, rng):
        with pytest.raises(ValueError):
            Meteorograph.build(
                10, tiny_trace.corpus.dim, rng=rng,
                config=MeteorographConfig(
                    scheme=PlacementScheme.NONE, overlay_kind="kad"  # type: ignore[arg-type]
                ),
            )

    def test_protocol_joins_charge_messages(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=30, protocol_joins=True)
        assert system.network.sink.count("join") >= 2 * 29

    def test_zero_nodes_rejected(self, tiny_trace, rng):
        with pytest.raises(ValueError):
            Meteorograph.build(0, tiny_trace.corpus.dim, rng=rng)

    def test_build_deterministic(self, tiny_trace):
        a = build_small_system(tiny_trace, seed=3)
        b = build_small_system(tiny_trace, seed=3)
        assert list(a.overlay.ring) == list(b.overlay.ring)


class TestKeys:
    def test_item_keys_consistent_with_corpus_keys(self, tiny_trace):
        system = build_small_system(tiny_trace)
        corpus = tiny_trace.corpus
        angle_keys, key_mat = system.corpus_keys_multi(corpus)
        for i in (0, 5, 17):
            v = corpus.vector(i)
            a, p = system.item_keys(v.indices, v.values)
            assert a == angle_keys[i]
            assert p == key_mat[i, 0]

    def test_query_key_applies_equalizer(self, tiny_trace):
        system = build_small_system(tiny_trace, scheme=PlacementScheme.UNUSED_HASH)
        q = tiny_trace.corpus.vector(0)
        assert system.query_key(q) == system.equalizer.remap(system.query_angle_key(q))

    def test_none_scheme_keys_identical(self, tiny_trace):
        system = build_small_system(tiny_trace, scheme=PlacementScheme.NONE)
        q = tiny_trace.corpus.vector(0)
        assert system.query_key(q) == system.query_angle_key(q)

    def test_corpus_dim_mismatch_rejected(self, tiny_trace, small_trace):
        system = build_small_system(tiny_trace)
        with pytest.raises(ValueError):
            system.corpus_keys_multi(small_trace.corpus)


class TestPublishRetrieve:
    def test_round_trip_every_item_findable(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=40)
        system.publish_corpus(tiny_trace.corpus, rng)
        assert system.published_count == tiny_trace.corpus.n_items
        for item_id in range(0, tiny_trace.corpus.n_items, 29):
            res = system.find(system.random_origin(rng), item_id)
            assert res.found, item_id

    def test_publish_corpus_conserves_items(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=40)
        results = system.publish_corpus(tiny_trace.corpus, rng)
        assert len(results) == tiny_trace.corpus.n_items
        assert system.network.total_items() == tiny_trace.corpus.n_items

    def test_publish_corpus_item_ids_must_parallel(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=20)
        with pytest.raises(ValueError):
            system.publish_corpus(tiny_trace.corpus, rng, item_ids=[1, 2, 3])

    def test_retrieve_own_vector_finds_item(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=40)
        system.publish_corpus(tiny_trace.corpus, rng)
        q = tiny_trace.corpus.vector(7)
        res = system.retrieve(system.random_origin(rng), q, amount=5)
        assert 7 in res.item_ids()

    def test_top_k_sorted_by_score(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=40)
        system.publish_corpus(tiny_trace.corpus, rng)
        q = tiny_trace.corpus.vector(3)
        top = system.top_k(system.random_origin(rng), q, 5)
        scores = [d.score for d in top]
        assert scores == sorted(scores, reverse=True)
        assert top[0].item_id == 3  # self-match ranks first

    def test_publish_vector_api(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=20)
        v = tiny_trace.corpus.vector(0)
        res = system.publish(system.random_origin(rng), 0, v.indices, v.values)
        assert res.success

    def test_hop_budget_default_from_config(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=20, node_capacity=1,
                                    hop_budget=0)
        v0 = tiny_trace.corpus.vector(0)
        v1 = tiny_trace.corpus.vector(1)
        origin = system.random_origin(rng)
        first = system.publish(origin, 0, v0.indices, v0.values)
        assert first.success

    def test_use_first_hop_requires_sample(self, tiny_trace, rng):
        system = Meteorograph.build(
            10, tiny_trace.corpus.dim, rng=rng,
            config=MeteorographConfig(scheme=PlacementScheme.NONE),
        )
        q = tiny_trace.corpus.vector(0)
        with pytest.raises(RuntimeError):
            system.retrieve(system.random_origin(rng), q, 1, use_first_hop=True)


class TestLoadsAndOrigins:
    def test_loads_sum_to_items(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=40)
        system.publish_corpus(tiny_trace.corpus, rng)
        assert int(system.loads().sum()) == tiny_trace.corpus.n_items

    def test_ideal_load(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=30)
        system.publish_corpus(tiny_trace.corpus, rng)
        assert system.ideal_load() == pytest.approx(tiny_trace.corpus.n_items / 30)

    def test_random_origin_avoids_dead(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=10)
        ids = list(system.overlay.ring)
        system.network.fail_nodes(ids[:9])
        for _ in range(5):
            assert system.random_origin(rng) == ids[9]

    def test_random_origin_all_dead_raises(self, tiny_trace, rng):
        system = build_small_system(tiny_trace, n_nodes=5)
        system.network.fail_nodes(list(system.overlay.ring))
        with pytest.raises(RuntimeError):
            system.random_origin(rng)


class TestKeywordSearch:
    def test_recall_against_ground_truth(self, tiny_trace, rng):
        from repro.workload import keyword_ground_truth, nth_popular_keyword

        system = build_small_system(tiny_trace, n_nodes=40)
        system.publish_corpus(tiny_trace.corpus, rng)
        kw = nth_popular_keyword(tiny_trace.corpus, 3)
        gt = keyword_ground_truth(tiny_trace.corpus, [kw])
        q = keyword_query(tiny_trace, [kw])
        res = system.retrieve(
            system.random_origin(rng), q, None, require_all=[kw],
            use_first_hop=True, patience=40,
        )
        assert res.found >= 0.9 * gt.total
