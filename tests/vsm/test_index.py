"""Unit tests for the per-node local VSM index."""

from dataclasses import replace

import numpy as np
import pytest
from cosine_oracle import top_k_items

from repro.sim.node import StoredItem
from repro.vsm.index import LocalVsmIndex, Ranking, ScoredItem
from repro.vsm.sparse import Corpus, SparseVector

DIM = 20


def item(item_id, mapping):
    ids = np.array(sorted(mapping), dtype=np.int64)
    w = np.array([mapping[i] for i in ids], dtype=np.float64)
    return StoredItem(item_id, 0, 0, ids, w)


def query(mapping):
    return SparseVector.from_mapping(mapping, DIM)


class TestMaintenance:
    def test_add_and_len(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(2, {1: 1.0}))
        assert len(idx) == 2
        assert 1 in idx and 3 not in idx

    def test_re_add_replaces(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(1, {5: 2.0}))
        assert len(idx) == 1
        hits = idx.query(query({5: 1.0}))
        assert [h.item.item_id for h in hits] == [1]
        assert idx.query(query({0: 1.0})) == []

    def test_remove_cleans_postings(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 3: 1.0}))
        removed = idx.remove(1)
        assert removed.item_id == 1
        assert len(idx) == 0
        assert idx.query(query({0: 1.0})) == []
        with pytest.raises(KeyError):
            idx.remove(1)

    def test_rebuild(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.rebuild([item(2, {1: 1.0}), item(3, {1: 1.0})])
        assert len(idx) == 2
        assert 1 not in idx


class TestQuery:
    def build(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 1: 1.0}))
        idx.add(item(2, {0: 1.0}))
        idx.add(item(3, {5: 1.0}))
        idx.add(item(4, {0: 1.0, 1: 1.0, 2: 1.0}))
        return idx

    def test_ranking_matches_bruteforce_cosine(self):
        idx = self.build()
        q = query({0: 1.0, 1: 1.0})
        got = [(h.item.item_id, h.score) for h in idx.query(q)]
        # The oracle ranks the same four rows (item id = row + 1); the
        # index returns only items sharing a keyword with the query.
        rows = ({0: 1.0, 1: 1.0}, {0: 1.0}, {5: 1.0}, {0: 1.0, 1: 1.0, 2: 1.0})
        corpus = Corpus.from_vectors([query(m) for m in rows])
        expect = [(row + 1, s) for row, s in top_k_items(corpus, q, 4) if s > 0]
        assert [i for i, _ in got] == [i for i, _ in expect]
        for (gi, gs), (ei, es) in zip(got, expect):
            assert gs == pytest.approx(es)

    def test_non_overlapping_items_excluded(self):
        hits = self.build().query(query({0: 1.0}))
        assert 3 not in [h.item.item_id for h in hits]

    def test_limit(self):
        assert len(self.build().query(query({0: 1.0}), limit=2)) == 2

    def test_require_all_filters(self):
        hits = self.build().query(query({0: 1.0}), require_all=[0, 1])
        assert sorted(h.item.item_id for h in hits) == [1, 4]

    def test_min_score(self):
        idx = self.build()
        q = query({0: 1.0, 1: 1.0})
        strict = idx.query(q, min_score=0.99)
        assert [h.item.item_id for h in strict] == [1]

    def test_empty_query_returns_nothing(self):
        q = SparseVector.from_mapping({}, DIM)
        assert self.build().query(q) == []


class TestQueryMany:
    """query_many(queries)[i] must equal query(queries[i]) exactly — the
    batch read path's bulk-scoring contract."""

    def build(self, seed=0, n_items=30):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        for iid in range(n_items):
            k = int(rng.integers(1, 5))
            kws = sorted(rng.choice(DIM, size=k, replace=False).tolist())
            idx.add(item(iid, {kw: float(w) for kw, w in
                             zip(kws, rng.uniform(0.2, 2.0, size=k))}))
        return rng, idx

    def rand_query(self, rng):
        k = int(rng.integers(1, 4))
        kws = rng.choice(DIM, size=k, replace=False).tolist()
        return query(dict(zip(kws, rng.uniform(0.2, 2.0, size=k))))

    def pairs(self, hits):
        return [(h.item.item_id, h.score) for h in hits]

    def test_matches_scalar_exactly(self):
        rng, idx = self.build()
        queries = [self.rand_query(rng) for _ in range(12)]
        queries[5] = queries[0]  # duplicate content exercises the memo
        for limit in (None, 3):
            batch = idx.query_many(queries, limit=limit)
            for q, hits in zip(queries, batch):
                assert self.pairs(hits) == self.pairs(idx.query(q, limit=limit))

    def test_matches_scalar_with_filters(self):
        rng, idx = self.build(seed=3)
        queries = [self.rand_query(rng) for _ in range(8)]
        kw = int(queries[0].indices[0])
        batch = idx.query_many(queries, require_all=[kw], min_score=0.1)
        for q, hits in zip(queries, batch):
            assert self.pairs(hits) == self.pairs(
                idx.query(q, require_all=[kw], min_score=0.1)
            )

    def test_mutation_invalidates_snapshot(self):
        rng, idx = self.build(seed=5)
        q = self.rand_query(rng)
        before = idx.query_many([q])[0]
        assert self.pairs(before) == self.pairs(idx.query(q))
        idx.add(item(999, {int(q.indices[0]): 5.0}))
        after = idx.query_many([q])[0]
        assert 999 in [h.item.item_id for h in after]
        idx.remove(999)
        again = idx.query_many([q])[0]
        assert self.pairs(again) == self.pairs(before)

    def test_duplicate_results_are_independent_lists(self):
        rng, idx = self.build(seed=7)
        q = self.rand_query(rng)
        a, b = idx.query_many([q, q])
        assert a is not b and self.pairs(a) == self.pairs(b)

    def test_empty_batch_and_empty_index(self):
        assert LocalVsmIndex().query_many([]) == []
        assert LocalVsmIndex().query_many([query({1: 1.0})]) == [[]]


class TestRanking:
    """``query`` / ``query_many`` return columns that behave like the
    list of ``ScoredItem`` they replaced, and stay valid as a snapshot."""

    def build(self, n_items=120, seed=11):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        for iid in range(n_items):
            k = int(rng.integers(1, 5))
            kws = rng.choice(DIM, size=k, replace=False).tolist()
            idx.add(item(iid, dict(zip(kws, rng.uniform(0.2, 2.0, size=k)))))
        return idx

    def pairs(self, hits):
        return [(h.item.item_id, h.score) for h in hits]

    def test_sequence_protocol(self):
        idx = self.build()
        r = idx.query(query({0: 1.0, 3: 0.5}))
        assert isinstance(r, Ranking)
        n = len(r)
        assert n > 3 and bool(r)
        hits = list(r)
        assert all(isinstance(h, ScoredItem) for h in hits)
        assert all(type(h.score) is float for h in hits)
        keys = [(-h.score, h.item.item_id) for h in hits]
        assert keys == sorted(keys)  # iteration order is rank order
        assert self.pairs([r[0], r[n - 1]]) == self.pairs([hits[0], hits[-1]])
        assert self.pairs([r[-1], r[-n]]) == self.pairs([hits[-1], hits[0]])
        with pytest.raises(IndexError):
            r[n]
        cut = r[1:3]
        assert isinstance(cut, Ranking) and len(cut) == 2
        assert self.pairs(cut) == self.pairs(hits[1:3])
        assert cut.ids.tolist() == r.ids[1:3].tolist()
        assert self.pairs(r[: n + 5]) == self.pairs(hits)
        assert self.pairs(list(r)) == self.pairs(hits)  # re-iterable

    def test_empty_ranking_equals_empty_list(self):
        idx = self.build()
        dry = idx.query(query({19: 1.0}), require_all=[0, 1, 2, 3, 4, 5])
        assert len(dry) == 0 and not dry
        assert dry == [] and [dry] == [[]] and list(dry) == []
        assert dry[:3] == []
        assert idx.query(query({0: 1.0})) != []

    def test_query_many_duplicates_are_independent(self):
        idx = self.build()
        q = query({0: 1.0, 3: 0.5})
        a, b = idx.query_many([q, q])
        assert a is not b
        assert self.pairs(a) == self.pairs(b) == self.pairs(idx.query(q))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"limit": 4},
            {"require_all": [0]},
            {"min_score": 0.5},
            {"limit": 2, "require_all": [0], "min_score": 0.2},
        ],
    )
    def test_columns_are_the_hits_bit_for_bit(self, kwargs):
        idx = self.build()
        q = query({0: 1.0, 3: 0.5, 7: 0.25})
        for r in (idx.query(q, **kwargs), idx.query_many([q], **kwargs)[0]):
            assert r.ids.dtype == np.int64 and r.scores.dtype == np.float64
            assert list(zip(r.ids.tolist(), r.scores.tolist())) == self.pairs(r)
            assert len(r) == len(r.ids) == len(r.scores)

    @pytest.mark.parametrize("mutate", ["remove", "remove_many", "compact", "rebuild"])
    def test_snapshot_survives_mutation(self, mutate):
        idx = self.build()
        q = query({0: 1.0, 3: 0.5})
        r = idx.query(q)
        before = [(h.item, h.score) for h in r]
        ranked = r.ids.tolist()
        if mutate == "remove":
            idx.remove(ranked[0])
        elif mutate == "remove_many":
            idx.remove_many(ranked)
        elif mutate == "compact":
            # Dead rows outnumbering live ones forces a compaction, which
            # renumbers every slot.
            rows_before = idx._rows
            idx.remove_many([i for i in range(120) if i % 4])
            assert idx._rows < rows_before
        else:
            idx.rebuild([item(500, {0: 1.0})])
        idx.add(item(900, {0: 3.0, 3: 1.0}))
        after = [(h.item, h.score) for h in r]
        assert [(a == b, s == t) for (a, s), (b, t) in zip(before, after)] == [
            (True, True)
        ] * len(before)
        assert r.ids.tolist() == ranked
        assert 900 not in r.ids.tolist()

    @pytest.mark.parametrize("bulk", [False, True], ids=["add", "add_many"])
    @pytest.mark.parametrize("marker", ["payload", "replica_of"])
    def test_snapshot_keeps_markers_across_compaction(self, marker, bulk):
        # A store with no payload or replica row, ranked then compacted:
        # rows added afterwards reuse the old slot numbers, and their
        # markers must not show through the old hits.
        idx = self.build()
        r = idx.query(query({0: 1.0, 3: 0.5}))
        before = [(h.item, h.score) for h in r]
        idx.remove_many([i for i in range(120) if i % 4])
        assert idx._rows == 30  # compacted: slots renumbered from 0
        fresh = [
            replace(item(1000 + i, {0: 1.0}), **{marker: 7}) for i in range(120)
        ]
        if bulk:
            idx.add_many(fresh)
        else:
            for it in fresh:
                idx.add(it)
        after = [(h.item, h.score) for h in r]
        assert after == before
        assert all(h.item.payload is None and h.item.replica_of is None for h in r)


class TestLeastSimilar:
    def test_picks_lowest_cosine(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        idx.add(item(2, {0: 1.0, 9: 5.0}))
        idx.add(item(3, {9: 1.0}))
        victim = idx.least_similar(query({0: 1.0}))
        assert victim.item_id == 3  # no overlap → score 0

    def test_tie_breaks_on_lowest_id(self):
        idx = LocalVsmIndex()
        idx.add(item(5, {7: 1.0}))
        idx.add(item(2, {8: 1.0}))
        victim = idx.least_similar(query({0: 1.0}))
        assert victim.item_id == 2

    def test_empty_index_returns_none(self):
        assert LocalVsmIndex().least_similar(query({0: 1.0})) is None


class TestItemsWithAllKeywords:
    def test_conjunction(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0, 1: 1.0}))
        idx.add(item(2, {0: 1.0}))
        idx.add(item(3, {0: 1.0, 1: 1.0, 2: 1.0}))
        hits = idx.items_with_all_keywords([0, 1])
        assert [i.item_id for i in hits] == [1, 3]

    def test_empty_keyword_list(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        assert idx.items_with_all_keywords([]) == []

    def test_unknown_keyword(self):
        idx = LocalVsmIndex()
        idx.add(item(1, {0: 1.0}))
        assert idx.items_with_all_keywords([15]) == []
