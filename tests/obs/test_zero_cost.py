"""Zero cost when off, as a count rather than a timing.

With observability disabled every instrument is the shared null twin
(``NullTraceBus`` / ``NullMetricsRegistry``).  Hot loops must guard
their per-hop and per-visit emissions with ``enabled``, so an operation
calls the null twins a fixed number of times — once per span or timer
it opens — however many hops it routes or nodes it visits.  Each test
below runs one public operation at two or more sizes whose hop or
visit counts differ at least 5× and asserts the null-twin calls match
call for call.  An unguarded emission inside a loop makes the larger
operation's count grow and fails the test.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import Meteorograph, MeteorographConfig
from repro.obs.registry import NullMetricsRegistry
from repro.obs.trace import NullTraceBus
from repro.workload import WorldCupParams, generate_trace

_NULL_METHODS = (
    (NullTraceBus, ("span", "event")),
    (NullMetricsRegistry, ("counter", "gauge", "observe", "timer", "bucket")),
)


def _counted(calls, cls, name):
    fn = getattr(cls, name)

    def counted(self, label, *args, **kwargs):
        calls[(name, label)] += 1
        return fn(self, label, *args, **kwargs)

    return counted


@pytest.fixture(scope="module")
def world():
    """A benign published 1 000-node ring whose null twins count their
    calls.  The wrappers go in before the build, so nothing can hold an
    unwrapped method."""
    calls: Counter = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for cls, names in _NULL_METHODS:
            for name in names:
                mp.setattr(cls, name, _counted(calls, cls, name))
        trace = generate_trace(
            WorldCupParams(n_items=300, n_keywords=120, mean_basket=12.0), seed=99
        )
        rng = np.random.default_rng(5)
        sample = trace.corpus.subsample(
            np.sort(rng.choice(trace.corpus.n_items, size=40, replace=False))
        )
        system = Meteorograph.build(
            1000,
            trace.corpus.dim,
            rng=rng,
            sample=sample,
            config=MeteorographConfig(observability=False),
        )
        system.publish_corpus(trace.corpus, rng)
        assert not system.obs.enabled
        yield system, trace.corpus, calls


def _measure(calls, op):
    """(null-twin calls, result) of one operation."""
    calls.clear()
    result = op()
    return Counter(calls), result


def _assert_flat(runs):
    """``runs`` is ``[(size, calls)]``: sizes span at least 5× and every
    run made the same null-twin calls."""
    sizes = [size for size, _ in runs]
    assert min(sizes) >= 1 and max(sizes) >= 5 * min(sizes), sizes
    first = runs[0][1]
    for size, calls in runs[1:]:
        assert calls == first, (size, calls, first)


def _origins_by_hops(system, key):
    """The origins whose route to ``key`` is shortest (>= 1 hop) and
    longest, found by routing from every node."""
    hops = {o: system.overlay.route(o, key).hops for o in system.overlay.ring}
    hops = {o: h for o, h in hops.items() if h >= 1}
    return min(hops, key=hops.get), max(hops, key=hops.get)


class TestNullTwinCallsPerOperation:
    def test_route(self, world):
        system, corpus, calls = world
        key = system.published_key_of(0)
        runs = []
        for origin in _origins_by_hops(system, key):
            got, res = _measure(calls, lambda: system.overlay.route(origin, key))
            runs.append((res.hops, got))
        _assert_flat(runs)

    def test_find(self, world):
        system, corpus, calls = world
        runs = []
        for origin in _origins_by_hops(system, system.published_key_of(0)):
            got, res = _measure(calls, lambda: system.find(origin, 0))
            assert res.found
            runs.append((res.messages, got))
        _assert_flat(runs)
        assert runs[0][1][("span", "find")] == 1

    def test_retrieve_walk_length(self, world):
        system, corpus, calls = world
        origin = next(iter(system.overlay.ring))
        query = corpus.vector(7)
        runs = []
        for max_walk in (1, 32):
            got, res = _measure(
                calls,
                lambda: system.retrieve(
                    origin, query, None, max_walk=max_walk, patience=64
                ),
            )
            runs.append((len(res.visited), got))
        _assert_flat(runs)
        assert runs[0][1][("span", "retrieve")] == 1

    def test_retrieve_many_window(self, world):
        system, corpus, calls = world
        origin = next(iter(system.overlay.ring))
        window = [corpus.vector(i) for i in range(16)]
        runs = []
        for max_walk in (1, 32):
            got, res = _measure(
                calls,
                lambda: system.retrieve_many(
                    origin, window, None, max_walk=max_walk, patience=64
                ),
            )
            runs.append((sum(len(r.visited) for r in res), got))
        _assert_flat(runs)

    @pytest.mark.parametrize("corpus_call", [True, False], ids=["auto", "sequential"])
    def test_publish_corpus(self, world, corpus_call):
        """A one-row ``publish_corpus`` and a scalar ``publish`` — both
        batches of one through the write engine."""
        system, corpus, calls = world
        sink = system.network.sink
        # Item 0's content again under a fresh id, so its key is item
        # 0's: one hop from the near origin, five from the far one.
        one = corpus.subsample(np.array([0]))
        vector = corpus.vector(0)
        key = system.published_key_of(0)
        runs = []
        for origin in _origins_by_hops(system, key):
            fresh_id = 10_000 + system.published_count
            before = sink.total
            got, _ = _measure(
                calls,
                lambda: system.publish_corpus(
                    one, np.random.default_rng(0), item_ids=[fresh_id], origin=origin
                )
                if corpus_call
                else system.publish(origin, fresh_id, vector.indices, vector.values),
            )
            runs.append((sink.total - before, got))
        _assert_flat(runs)
