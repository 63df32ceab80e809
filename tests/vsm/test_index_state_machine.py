"""Stateful property: no mutation sequence makes a lazy view lie.

``LocalVsmIndex`` answers queries from derived views (scoring view,
postings, keyword-presence summary) that are built lazily and must die
with the state they were built from.  ``test_columnar_equivalence.py``
uses ``DIM = 24``, where every keyword is present on every index and a
*dry* query — the case the presence summary short-circuits — never
happens.  Here the dictionary is sparse (2 048 ids, items of 1–5
keywords, at most 60 rows), and after **every** rule a query mix biased
to absent keywords, to keywords the rule just added and to keywords it
just removed is compared exactly — ids, scores, order — against an
oracle that always runs the unconditional full-scan kernel
(``score_many`` row + the ``(-score, id)`` sort), itself cross-checked
against a plain dict model.

The bug this exists to catch: a summary validated by "a scoring view
exists" instead of "*the* view it was built beside" keeps answering
"absent" for keywords added after it was built, as soon as anything
(a wet query, ``least_similar``, ``score_many``) rebuilds the view
without it.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim.node import StoredItem
from repro.vsm.index import LocalVsmIndex
from repro.vsm.sparse import SparseVector

DIM = 2048
#: A small hot vocabulary so rankings have several hits and score ties;
#: everything else is the sparse tail.
HOT = 12
MAX_ROWS = 60

keywords = st.one_of(st.integers(0, HOT - 1), st.integers(0, DIM - 1))
weights = st.sampled_from([1.0, 1.0, 0.5, 2.0, 1.25])
baskets = st.dictionaries(keywords, weights, min_size=1, max_size=5)
angle_keys = st.integers(0, (1 << 20) - 1)

#: (limit, min_score) variants every query of the mix is checked under.
VARIANTS = [(None, 0.0), (1, 0.0), (10, 0.0), (None, 0.4), (10, 0.75)]


def make_item(item_id, basket, angle_key):
    ids = np.array(sorted(basket), dtype=np.int64)
    w = np.array([basket[int(i)] for i in ids], dtype=np.float64)
    return StoredItem(item_id, angle_key, angle_key, ids, w)


def vec(mapping):
    return SparseVector.from_mapping(mapping, DIM)


def keywords_of(items):
    return {int(k) for it in items for k in it.keyword_ids}


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = LocalVsmIndex()
        self.model: dict[int, StoredItem] = {}
        self.next_id = 0
        #: Keywords the last rule added to / removed from the index.
        self.added: set[int] = set()
        self.removed: set[int] = set()
        #: Query weights only; deterministic given the rule sequence.
        self.rng = np.random.default_rng(0)

    # -- oracle -------------------------------------------------------------

    def full_scan(self, q):
        """(ids ascending, scores) from the unconditional kernel, checked
        against the dict model so the oracle cannot share a stale view."""
        ids, scores = self.index.score_many([q])
        ids, scores = ids.tolist(), scores[0].tolist()
        assert ids == sorted(self.model)
        qmap = dict(zip(q.keyword_tuple, q.values.tolist()))
        qnorm = math.sqrt(sum(w * w for w in qmap.values()))
        for iid, s in zip(ids, scores):
            it = self.model[iid]
            ws = it.weights.tolist()
            dot = sum(w * qmap.get(k, 0.0) for k, w in zip(it.keyword_ids.tolist(), ws))
            want = dot / (math.sqrt(sum(w * w for w in ws)) * qnorm) if dot else 0.0
            assert s == pytest.approx(want, rel=1e-12, abs=1e-15)
        return ids, scores

    def expected(self, scan, limit, require_all, min_score):
        ids, scores = scan
        model = self.model
        hits = [
            (-s, i) for i, s in zip(ids, scores)
            if s > 0.0 and s >= min_score
            and (not require_all
                 or set(require_all) <= set(model[i].keyword_ids.tolist()))
        ]
        hits.sort()
        if limit is not None:
            hits = hits[:limit]
        return [i for _, i in hits], [-s for s, _ in hits]

    def check_query(self, q, scan, limit, require_all=None, min_score=0.0):
        got = self.index.query(q, limit, require_all=require_all, min_score=min_score)
        want_ids, want_scores = self.expected(scan, limit, require_all, min_score)
        assert got.ids.tolist() == want_ids
        assert got.scores.tolist() == want_scores
        assert [h.item for h in got] == [self.model[i] for i in want_ids]

    # -- bookkeeping ----------------------------------------------------------

    def touched(self, before, after):
        self.added = after - before
        self.removed = before - after

    def fresh_items(self, specs):
        items = []
        for basket, angle_key in specs:
            items.append(make_item(self.next_id, basket, angle_key))
            self.next_id += 1
        return items

    # -- mutation rules -------------------------------------------------------

    @precondition(lambda self: len(self.model) < MAX_ROWS)
    @rule(basket=baskets, angle_key=angle_keys)
    def add(self, basket, angle_key):
        before = keywords_of(self.model.values())
        (item,) = self.fresh_items([(basket, angle_key)])
        self.index.add(item)
        self.model[item.item_id] = item
        self.touched(before, keywords_of(self.model.values()))

    @precondition(lambda self: len(self.model) <= MAX_ROWS - 6)
    @rule(specs=st.lists(st.tuples(baskets, angle_keys), min_size=1, max_size=6),
          repeat_first=st.booleans())
    def add_many(self, specs, repeat_first):
        before = keywords_of(self.model.values())
        items = self.fresh_items(specs)
        if repeat_first and len(items) > 1:
            # An intra-batch duplicate id: the later occurrence wins.
            last = items[-1]
            items[-1] = make_item(items[0].item_id, dict(zip(
                last.keyword_ids.tolist(), last.weights.tolist())), last.angle_key)
        self.index.add_many(items)
        for it in items:
            self.model[it.item_id] = it
        self.touched(before, keywords_of(self.model.values()))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), basket=baskets, angle_key=angle_keys)
    def re_add(self, data, basket, angle_key):
        before = keywords_of(self.model.values())
        iid = data.draw(st.sampled_from(sorted(self.model)))
        item = make_item(iid, basket, angle_key)
        self.index.add(item)
        self.model[iid] = item
        self.touched(before, keywords_of(self.model.values()))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        before = keywords_of(self.model.values())
        iid = data.draw(st.sampled_from(sorted(self.model)))
        assert self.index.remove(iid) == self.model.pop(iid)
        self.touched(before, keywords_of(self.model.values()))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_many(self, data):
        before = keywords_of(self.model.values())
        ids = data.draw(st.lists(
            st.sampled_from(sorted(self.model)), min_size=1, max_size=8, unique=True))
        removed = self.index.remove_many(ids)
        assert removed == [self.model.pop(i) for i in ids]
        self.touched(before, keywords_of(self.model.values()))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_until_compaction(self, data):
        """Pad with throwaway rows, then remove enough rows (padding
        first, then real ones) for tombstones to outnumber the living —
        ``_compact`` must run and renumber every slot."""
        before = keywords_of(self.model.values())
        keep = data.draw(st.integers(0, len(self.model)))
        pad = self.fresh_items(
            [({k: 1.0}, 0) for k in range(HOT, HOT + max(33, keep + 1))]
        )
        self.index.add_many(pad)
        doomed = [it.item_id for it in pad] + sorted(self.model)[keep:]
        for iid in doomed:
            self.index.remove(iid)
            self.model.pop(iid, None)
        assert self.index._dead_rows < len(doomed)  # noqa: SLF001 - it compacted
        self.touched(before, keywords_of(self.model.values()))

    @rule(data=st.data())
    def rebuild(self, data):
        before = keywords_of(self.model.values())
        keep = data.draw(st.lists(
            st.sampled_from(sorted(self.model)), unique=True)) if self.model else []
        self.model = {i: self.model[i] for i in keep}
        self.index.rebuild(self.model.values())
        self.touched(before, keywords_of(self.model.values()))

    # -- read rules that rebuild the scoring view without a summary -----------

    @rule(basket=baskets)
    def least_similar(self, basket):
        q = vec(basket)
        victim = self.index.least_similar(q)
        if not self.model:
            assert victim is None
            return
        ids, scores = self.full_scan(q)
        assert victim == self.model[min(zip(scores, ids))[1]]

    @rule(probes=st.lists(baskets, min_size=1, max_size=3))
    def score_many(self, probes):
        for basket in probes:
            self.full_scan(vec(basket))

    # -- after every rule -------------------------------------------------------

    def query_mix(self):
        """Queries over absent / just-added / just-removed / still-present
        keywords, alone and combined."""
        present = sorted(keywords_of(self.model.values()))
        rng = self.rng
        absent = [k for k in rng.integers(0, DIM, size=4).tolist() if k not in present]
        focus = sorted(self.added)[:3] + sorted(self.removed)[:3]
        if present:
            focus.append(present[int(rng.integers(len(present)))])
        w = lambda: float(rng.choice([0.5, 1.0, 2.0]))  # noqa: E731
        mix = [{}]
        mix += [{k: w()} for k in focus + absent[:2]]
        mix += [{k: w(), a: w()} for k in focus for a in absent[:1]]
        if len(absent) > 1:
            mix.append({a: w() for a in absent})
        if len(focus) > 1:
            mix.append({k: w() for k in focus})
        return [vec(m) for m in mix], present, absent

    @invariant()
    def queries_match_full_scan(self):
        assert len(self.index) == len(self.model)
        queries, present, absent = self.query_mix()
        # Scalar queries run before the oracle: the index must be right
        # in whatever view state the rule left it, not after score_many
        # has rebuilt the view for it.
        for q in queries:
            got = self.index.query(q)
            scan = self.full_scan(q)
            want_ids, want_scores = self.expected(scan, None, None, 0.0)
            assert (got.ids.tolist(), got.scores.tolist()) == (want_ids, want_scores)
            for limit, min_score in VARIANTS:
                self.check_query(q, scan, limit, min_score=min_score)
            keys = q.keyword_tuple
            if keys:
                # Exact filter on the query's own keywords …
                self.check_query(q, scan, None, require_all=list(keys))
                self.check_query(q, scan, 1, require_all=[keys[0]], min_score=0.4)
            # … and on a keyword the query does not name.
            outside = [k for k in present[:2] + absent[:1] if k not in keys]
            for k in outside:
                self.check_query(q, scan, 10, require_all=[k])
        # The batch entry point shares ``_ranked``.
        for q, hits in zip(queries, self.index.query_many(queries, 10)):
            want_ids, want_scores = self.expected(self.full_scan(q), 10, None, 0.0)
            assert (hits.ids.tolist(), hits.scores.tolist()) == (want_ids, want_scores)


TestIndexStateMachine = IndexMachine.TestCase
TestIndexStateMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None, derandomize=True
)
