"""Columnar-store equivalence: the SoA index vs a dict-based oracle.

The columnar re-platform (DESIGN.md, "Columnar node state") changed the
*representation* of per-node state, not its semantics.  These tests pin
that claim:

* randomized add / remove / re-add / query interleavings must match a
  plain dict oracle on rankings, the angle ladder and its extremes (the
  ANGLE victim candidates) and the id → item contents — across scalar
  ops, bulk ops, and the tombstone-compaction cycles the interleavings
  trigger;
* ``least_similar`` (the COSINE replacement-victim rule) must agree with
  the victim derived from the batch ``score_many`` matrix — scalar and
  batch paths run one kernel, so the pick is identical, not just close;
* regression: a query that raises mid-kernel must not leave the shared
  dense scratch dirty (every later score on the node would be wrong);
* regression: ``LocalVsmIndex.remove_many`` with duplicate ids must remove
  each id once instead of raising ``KeyError`` mid-sweep, and an unknown
  id must fail *before* any mutation.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.sim.node import StoredItem
from repro.vsm.index import LocalVsmIndex, RowBlock
from repro.vsm.sparse import SparseVector

DIM = 24


def make_item(item_id, mapping, angle_key=0):
    ids = np.array(sorted(mapping), dtype=np.int64)
    w = np.array([mapping[i] for i in ids], dtype=np.float64)
    return StoredItem(item_id, angle_key, angle_key, ids, w)


def rand_item(rng, item_id):
    k = int(rng.integers(1, 6))
    kws = rng.choice(DIM, size=k, replace=False).tolist()
    ws = rng.uniform(0.2, 2.0, size=k)
    return make_item(
        item_id, dict(zip(kws, ws)), angle_key=int(rng.integers(0, 1 << 20))
    )


def rand_query(rng):
    k = int(rng.integers(1, 5))
    kws = rng.choice(DIM, size=k, replace=False).tolist()
    return SparseVector.from_mapping(
        dict(zip(kws, rng.uniform(0.2, 2.0, size=k))), DIM
    )


def oracle_ranking(items, q):
    """Brute-force (id, score) ranking over a dict oracle."""
    scored = []
    for it in items.values():
        v = SparseVector(it.keyword_ids, it.weights, DIM)
        s = v.cosine(q)
        if s > 0.0:
            scored.append((it.item_id, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def snapshot(index):
    """(ladder copy, id → item copy): what shadow seeding reads."""
    return list(index.angle_ladder()), index.items_by_id()


def assert_rankings_match(got, expect):
    assert [i for i, _ in got] == [i for i, _ in expect]
    for (_, gs), (_, es) in zip(got, expect):
        assert gs == pytest.approx(es, rel=1e-12, abs=1e-15)


class TestRandomizedOracle:
    """Random interleavings of scalar/bulk mutations vs the dict oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_interleaved_mutations_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        index = LocalVsmIndex()
        oracle: dict[int, StoredItem] = {}
        next_id = 0
        for step in range(120):
            op = rng.random()
            if op < 0.35 or not oracle:
                it = rand_item(rng, next_id)
                next_id += 1
                index.add(it)
                oracle[it.item_id] = it
            elif op < 0.50:
                # Bulk add with an intra-batch duplicate id now and then.
                n = int(rng.integers(2, 8))
                batch = [rand_item(rng, next_id + j) for j in range(n)]
                next_id += n
                if n >= 3 and rng.random() < 0.5:
                    dup = rand_item(rng, batch[0].item_id)
                    batch.append(dup)
                index.add_many(batch)
                for it in batch:
                    oracle[it.item_id] = it
            elif op < 0.65:
                # Re-add an existing id with fresh content.
                iid = int(rng.choice(sorted(oracle)))
                it = rand_item(rng, iid)
                index.add(it)
                oracle[iid] = it
            elif op < 0.80:
                iid = int(rng.choice(sorted(oracle)))
                removed = index.remove(iid)
                assert removed == oracle.pop(iid)
            else:
                n = min(len(oracle), int(rng.integers(1, 6)))
                ids = rng.choice(sorted(oracle), size=n, replace=False).tolist()
                index.remove_many([int(i) for i in ids])
                for iid in ids:
                    del oracle[int(iid)]

            if step % 10 == 9:
                self.check_state(index, oracle, rng)
        self.check_state(index, oracle, rng)

    def check_state(self, index, oracle, rng):
        assert len(index) == len(oracle)
        # Rankings (scalar query + batch query_many share one kernel).
        queries = [rand_query(rng) for _ in range(3)]
        batch = index.query_many(queries)
        for q, hits in zip(queries, batch):
            got = [(h.item.item_id, h.score) for h in hits]
            assert_rankings_match(got, oracle_ranking(oracle, q))
            scalar = [(h.item.item_id, h.score) for h in index.query(q)]
            assert scalar == got
        # Ladder, its extremes (the ANGLE victim candidates) and contents.
        ladder, items = snapshot(index)
        assert items == oracle
        expect_ladder = sorted((it.angle_key, iid) for iid, it in oracle.items())
        assert ladder == expect_ladder
        for _, iid in ladder[:1] + ladder[-1:]:
            assert index.item(iid) == oracle[iid]

    def test_compaction_preserves_contents(self):
        rng = np.random.default_rng(42)
        index = LocalVsmIndex()
        items = [rand_item(rng, i) for i in range(120)]
        index.add_many(items)
        survivors = {it.item_id: it for it in items if it.item_id % 5 == 0}
        index.remove_many([it.item_id for it in items if it.item_id % 5])
        # 96 tombstones against 24 live rows — compaction must have run.
        assert index._rows == len(survivors)  # noqa: SLF001
        self.check_state(index, survivors, rng)


class TestVictimKernelAgreement:
    """least_similar (scalar) vs the score_many matrix (batch): the
    COSINE replacement rule must pick the same victim bit-for-bit."""

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_scalar_and_batch_agree(self, seed):
        rng = np.random.default_rng(seed)
        idx = LocalVsmIndex()
        for i in range(60):
            idx.add(rand_item(rng, i))
        queries = [rand_query(rng) for _ in range(20)]
        ids, scores = idx.score_many(queries)
        for q, row in zip(queries, scores):
            victim = idx.least_similar(q)
            batch_pick = int(ids[np.lexsort((ids, row))[0]])
            assert victim.item_id == batch_pick

    def test_agreement_with_zero_score_items(self):
        # Items sharing no keyword with the query score an exact 0 and
        # are the most eligible victims; ties break on ascending id.
        idx = LocalVsmIndex()
        idx.add(make_item(7, {0: 1.0}))
        idx.add(make_item(3, {9: 1.0}))
        idx.add(make_item(5, {9: 2.0}))
        q = SparseVector.from_mapping({0: 1.0}, DIM)
        ids, scores = idx.score_many([q])
        assert idx.least_similar(q).item_id == 3
        assert int(ids[np.lexsort((ids, scores[0]))[0]]) == 3

    def test_scores_match_query_path(self):
        rng = np.random.default_rng(13)
        idx = LocalVsmIndex()
        for i in range(40):
            idx.add(rand_item(rng, i))
        queries = [rand_query(rng) for _ in range(8)]
        ids, scores = idx.score_many(queries)
        cols = {int(iid): j for j, iid in enumerate(ids)}
        for q, row in zip(queries, scores):
            for h in idx.query(q):
                assert row[cols[h.item.item_id]] == h.score


class TestScratchCleanup:
    """Regression: a kernel failure mid-score must not leave the shared
    dense scratch dirty (it would corrupt every later score)."""

    def test_failed_query_does_not_corrupt_later_scores(self, monkeypatch):
        idx = LocalVsmIndex()
        idx.add(make_item(1, {0: 1.0, 3: 2.0}))
        idx.add(make_item(2, {0: 2.0, 5: 1.0}))
        q_fail = SparseVector.from_mapping({0: 9.0, 3: 9.0}, DIM)
        q_later = SparseVector.from_mapping({5: 1.0}, DIM)
        expect = [(h.item.item_id, h.score) for h in idx.query(q_later)]

        def boom(*args, **kwargs):
            raise RuntimeError("kernel failure")

        # Fail *after* q_fail has been scattered into the scratch; its
        # stale weights at keywords 0/3 would inflate every later score.
        with monkeypatch.context() as m:
            m.setattr(np, "multiply", boom)
            with pytest.raises(RuntimeError):
                idx.query(q_fail)
        got = [(h.item.item_id, h.score) for h in idx.query(q_later)]
        assert got == expect

    def test_scratch_zeroed_after_failure(self):
        idx = LocalVsmIndex()
        idx.add(
            StoredItem(
                1,
                0,
                0,
                np.array([DIM + 9], dtype=np.int64),
                np.array([1.0], dtype=np.float64),
            )
        )
        with pytest.raises(IndexError):
            idx.query(SparseVector.from_mapping({2: 5.0}, DIM))
        assert not idx._scratch.any()  # noqa: SLF001 - the regression itself


class TestRemoveManyDuplicates:
    """Regression: duplicate ids in remove_many removed once, unknown ids
    rejected before any mutation."""

    def build(self):
        index = LocalVsmIndex()
        index.add(make_item(1, {0: 1.0}, angle_key=10))
        index.add(make_item(2, {1: 1.0}, angle_key=20))
        index.add(make_item(3, {2: 1.0}, angle_key=30))
        return index

    def test_duplicate_ids_removed_once(self):
        index = self.build()
        out = index.remove_many([1, 2, 1, 1])
        assert [it.item_id for it in out] == [1, 2]
        ladder, items = snapshot(index)
        assert sorted(items) == [3]
        assert ladder == [(30, 3)]
        assert index.item(ladder[0][1]).item_id == 3

    def test_unknown_id_fails_before_mutation(self):
        index = self.build()
        with pytest.raises(KeyError):
            index.remove_many([1, 99])
        ladder, items = snapshot(index)
        assert sorted(items) == [1, 2, 3]
        assert ladder == [(10, 1), (20, 2), (30, 3)]

    def test_empty_and_index_level_dedupe(self):
        index = self.build()
        assert index.remove_many([]) == []
        assert [it.item_id for it in index.remove_many([3, 3])] == [3]
        assert 3 not in index


class TestBulkScalarEquivalence:
    """add_many / remove_many end states equal their scalar loops."""

    @pytest.mark.parametrize("seed", [20, 21])
    def test_add_many_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        items = [rand_item(rng, i % 15) for i in range(40)]  # heavy dup load
        bulk = LocalVsmIndex()
        bulk.add_many(items)
        scalar = LocalVsmIndex()
        for it in items:
            scalar.add(it)
        assert snapshot(bulk) == snapshot(scalar)
        q = rand_query(rng)
        pairs = lambda hits: [(h.item.item_id, h.score) for h in hits]  # noqa: E731
        assert pairs(bulk.query(q)) == pairs(scalar.query(q))

    def test_add_many_precomputed_norms_match(self):
        rng = np.random.default_rng(22)
        items = [rand_item(rng, i) for i in range(10)]
        norms = [math.sqrt(it.weights.dot(it.weights)) for it in items]
        block = RowBlock.from_items(items)
        block.norms = np.asarray(norms)  # an explicit norms column
        with_norms = LocalVsmIndex()
        with_norms.add_many(block)
        without = LocalVsmIndex()
        without.add_many(items)
        q = rand_query(rng)
        pairs = lambda hits: [(h.item.item_id, h.score) for h in hits]  # noqa: E731
        assert pairs(with_norms.query(q)) == pairs(without.query(q))
        for it in items:
            assert with_norms.norm_of(it.item_id) == without.norm_of(it.item_id)
        assert [with_norms.norm_of(it.item_id) for it in items] == norms
        # The block's column is what gets indexed, whatever it holds.
        block.norms = 2.0 * np.asarray(norms)
        doubled = LocalVsmIndex()
        doubled.add_many(block)
        assert [doubled.norm_of(it.item_id) for it in items] == block.norms.tolist()


class TestRowBlock:
    """A RowBlock is the columns of its items: gathers, slices and joins
    of blocks, a store written from one and the rows it returns on
    removal all read back as the same items — payloads and replica
    markers included, across compaction."""

    def items(self):
        rng = np.random.default_rng(30)
        out = [rand_item(rng, i) for i in range(12)]
        out[3] = dataclasses.replace(out[3], payload={"owner": 3})
        out[7] = dataclasses.replace(out[7], replica_of=4242)
        return out

    def test_block_reads_back_as_its_items(self):
        items = self.items()
        block = RowBlock.from_items(items)
        assert list(block) == items and len(block) == len(items)
        assert block.take([7, 3, 0]) == [items[7], items[3], items[0]]
        assert block[2:8] == items[2:8]
        assert RowBlock.concat([block[:5], block.take([9, 3]), block[5:]]) == (
            items[:5] + [items[9], items[3]] + items[5:]
        )

    def test_store_written_from_a_block_equals_scalar_adds(self):
        items = self.items()
        bulk = LocalVsmIndex()
        bulk.add_many(RowBlock.from_items(items).take(list(range(11, -1, -1))))
        scalar = LocalVsmIndex()
        for it in reversed(items):
            scalar.add(it)
        assert snapshot(bulk) == snapshot(scalar)
        assert bulk.item(3).payload == {"owner": 3} and bulk.item(7).is_replica

    def test_removed_rows_and_compaction_keep_markers(self):
        items = self.items()
        index = LocalVsmIndex()
        index.add_many(items)
        assert index.remove_many([7, 3]) == [items[7], items[3]]
        index.add_many([items[3], items[7]])
        pad = [make_item(100 + i, {0: 1.0}) for i in range(40)]
        index.add_many(pad)
        rows_before = index._rows  # noqa: SLF001
        index.remove_many([it.item_id for it in pad])
        assert index._rows < rows_before  # noqa: SLF001 - it compacted
        assert index.items_by_id() == {it.item_id: it for it in items}
