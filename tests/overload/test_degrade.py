"""Graceful degradation: diversion, breaker fast-fail, shed publishes,
and a shed publish backing off through the retry ladder.

These tests exercise the full system path (route → shed → divert)
rather than the controller in isolation: a module-private published
system is built once, and each test attaches its own fresh
:class:`AdmissionController` so meters and breakers never leak between
tests.  The shared session fixture ``populated_system`` is off limits —
attaching admission to it would change behaviour for every other module.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.maint import RetryPolicy
from repro.overload import AdmissionController, BackpressureError, OverloadPolicy
from repro.overload.admission import BACKOFF_TICKS
from repro.workload import keyword_query, nth_popular_keyword


def _saturate(adm: AdmissionController, node: int) -> None:
    """Fill ``node``'s meter to the cap without shedding anything.

    The fixture's near-zero service rate means admitted arrivals never
    drain, so the loop converges at the cap; stopping *before* the first
    shed keeps the node's breaker closed and the shed tallies at zero.
    """
    while not adm.saturated(node):
        assert adm.try_arrive(node, "publish")


@pytest.fixture(scope="module")
def published(small_trace, build_system_fn):
    """A published 120-node system of our own (module-private, mutable)."""
    system = build_system_fn(small_trace, n_nodes=120, observability=True)
    system.publish_corpus(small_trace.corpus, np.random.default_rng(17))
    return system


@pytest.fixture()
def adm(published):
    """Fresh controller per test, detached afterwards."""
    controller = AdmissionController(
        OverloadPolicy(service_rate=1e-9, queue_cap=6, divert_attempts=4),
        obs=published.obs,
    )
    published.network.attach_admission(controller)
    yield controller
    published.network.attach_admission(None)


def _origin(system, avoid: int | None = None) -> int:
    """A live node usable as a message origin (ids are not dense).

    ``avoid`` keeps the origin off the node under test: a send is only
    metered when a message actually crosses the fabric, and an origin
    that *is* the saturated home would deliver without one.
    """
    return min(i for i in system.network.alive_ids() if i != avoid)


def popular_query(trace, rank: int = 1):
    kw = nth_popular_keyword(trace.corpus, rank, max_matches=80)
    return keyword_query(trace, [kw])


class TestRetrieveDiversion:
    def test_saturated_home_diverts_with_degradation_level(
        self, published, adm, small_trace
    ):
        q = popular_query(small_trace)
        key = published.query_key(q)
        nominal = published.overlay.home(key)
        _saturate(adm, nominal)
        res = published.retrieve(_origin(published, avoid=nominal), q, 8)
        assert res.degradation_level >= 1
        assert res.degraded
        assert res.found > 0  # §3.3: the neighbor band still matches
        assert published.obs.metrics.counters["overload.diverts"] >= 1

    def test_unsaturated_home_serves_at_level_zero(self, published, adm, small_trace):
        q = popular_query(small_trace, rank=2)
        res = published.retrieve(_origin(published), q, 8)
        assert res.degradation_level == 0
        assert not res.degraded
        assert res.found > 0

    def test_divert_exhaustion_yields_incomplete_empty_result(
        self, published, small_trace
    ):
        # Saturate *every* live node: the nominal home sheds, and so does
        # each of the (few) divert candidates the policy allows.
        controller = AdmissionController(
            OverloadPolicy(service_rate=1e-9, queue_cap=4, divert_attempts=2),
            obs=published.obs,
        )
        published.network.attach_admission(controller)
        try:
            for node in published.network.alive_ids():
                _saturate(controller, node)
            q = popular_query(small_trace)
            origin = _origin(published, avoid=published.overlay.home(published.query_key(q)))
            res = published.retrieve(origin, q, 8)
            assert not res.complete
            assert res.found == 0
            assert res.degradation_level >= 1
        finally:
            published.network.attach_admission(None)


class TestPublishDiversion:
    def test_saturated_home_places_on_key_neighbor(
        self, published, adm, small_trace
    ):
        vec = small_trace.corpus.vector(0)
        _, publish_key = published.item_keys(vec.indices, vec.values)
        nominal = published.overlay.home(publish_key)
        _saturate(adm, nominal)
        item_id = small_trace.corpus.n_items + 1
        res = published.publish(
            _origin(published, avoid=nominal), item_id, vec.indices, vec.values
        )
        assert res.success
        assert res.home != nominal
        # The diverted copy is really there.
        assert published.network.node(res.home).has_item(item_id)

    def test_fully_shed_publish_reports_failure(self, published, small_trace):
        controller = AdmissionController(
            OverloadPolicy(service_rate=1e-9, queue_cap=4, divert_attempts=2),
            obs=published.obs,
        )
        published.network.attach_admission(controller)
        try:
            for node in published.network.alive_ids():
                _saturate(controller, node)
            shed_before = published.obs.metrics.counters.get(
                "overload.publish_shed", 0
            )
            vec = small_trace.corpus.vector(1)
            _, pkey = published.item_keys(vec.indices, vec.values)
            item_id = small_trace.corpus.n_items + 2
            origin = _origin(published, avoid=published.overlay.home(pkey))
            res = published.publish(origin, item_id, vec.indices, vec.values)
            assert not res.success
            assert res.dropped_item_id == item_id
            counters = published.obs.metrics.counters
            assert counters["overload.publish_shed"] == shed_before + 1
        finally:
            published.network.attach_admission(None)


class TestPublishBackoff:
    """Admission × retry: a shed publish climbs the retry policy's
    backoff ladder before it diverts to a key-neighbor."""

    @pytest.fixture()
    def retry(self, published):
        """Install a retry policy on the module system for one test."""
        config = published.config

        def install(policy: RetryPolicy) -> None:
            published.config = dataclasses.replace(config, retry_policy=policy)

        yield install
        published.config = config

    @staticmethod
    def _publish_at_saturated_home(system, controller, trace, row):
        vec = trace.corpus.vector(row)
        _, key = system.item_keys(vec.indices, vec.values)
        nominal = system.overlay.home(key)
        _saturate(controller, nominal)
        # A control arrival is never shed: it clamps the backlog at the
        # cap, so the publish's first arrival there is surely shed.
        controller.try_arrive(nominal, "route")
        counters = system.obs.metrics.counters
        names = ("maint.retries", "maint.retry_gave_up", "overload.diverts")
        before = {name: counters.get(name, 0) for name in names}
        before["clock"] = controller.clock
        before["sent"] = system.network.sink.total
        item_id = trace.corpus.n_items + 10 + row
        res = system.publish(
            _origin(system, avoid=nominal), item_id, vec.indices, vec.values
        )
        delta = {name: counters.get(name, 0) - before[name] for name in names}
        delta["clock"] = controller.clock - before["clock"]
        delta["sent"] = system.network.sink.total - before["sent"]
        return res, key, nominal, item_id, delta

    def test_backoff_drains_the_home_and_lands_there(
        self, published, retry, small_trace
    ):
        policy = RetryPolicy(seed=3)
        retry(policy)
        controller = AdmissionController(
            OverloadPolicy(service_rate=0.1, queue_cap=6), obs=published.obs
        )
        published.network.attach_admission(controller)
        try:
            res, key, nominal, item_id, delta = self._publish_at_saturated_home(
                published, controller, small_trace, 3
            )
            # One wait drained the home; the re-attempt was admitted at
            # the true home (degradation level 0: nothing diverted).
            assert res.success
            assert res.home == nominal
            assert published.network.node(nominal).has_item(item_id)
            # The clock moved once per message sent, plus the one wait.
            waited = int(policy.delay(0, token=key) * BACKOFF_TICKS)
            assert waited > 0
            assert delta.pop("clock") == delta.pop("sent") + waited
            assert delta == {
                "maint.retries": 1, "maint.retry_gave_up": 0, "overload.diverts": 0
            }
        finally:
            published.network.attach_admission(None)

    def test_zero_budget_diverts_to_a_key_neighbor(
        self, published, adm, retry, small_trace
    ):
        retry(RetryPolicy(seed=3, max_total_delay=0.0))
        res, _, nominal, item_id, delta = self._publish_at_saturated_home(
            published, adm, small_trace, 4
        )
        assert res.success
        assert res.home != nominal
        assert published.network.node(res.home).has_item(item_id)
        # The budget stop is counted once, and no wait was taken: the
        # clock moved once per message sent, plus once for the divert's
        # explicitly metered delivery at the neighbor.
        assert delta.pop("clock") == delta.pop("sent") + 1
        assert delta == {
            "maint.retries": 0, "maint.retry_gave_up": 1, "overload.diverts": 1
        }


class TestBreakerFastFail:
    def test_open_breaker_fails_before_spending_route_messages(
        self, published, adm, small_trace
    ):
        q = popular_query(small_trace)
        key = published.query_key(q)
        nominal = published.overlay.home(key)
        for _ in range(adm.policy.breaker_threshold):
            adm.breaker.record_rejection(nominal)
        before = published.network.sink.total
        fastfail_before = published.obs.metrics.counters.get(
            "overload.breaker_fastfail", 0
        )
        with pytest.raises(BackpressureError) as exc:
            published.deliver_home(_origin(published), key, kind="retrieve")
        assert exc.value.reason == "breaker-open"
        assert exc.value.node_id == nominal
        assert published.network.sink.total == before  # zero messages spent
        counters = published.obs.metrics.counters
        assert counters["overload.breaker_fastfail"] == fastfail_before + 1

    def test_retrieve_still_answers_while_breaker_is_open(
        self, published, adm, small_trace
    ):
        q = popular_query(small_trace)
        nominal = published.overlay.home(published.query_key(q))
        for _ in range(adm.policy.breaker_threshold):
            adm.breaker.record_rejection(nominal)
        res = published.retrieve(_origin(published, avoid=nominal), q, 8)
        assert res.degradation_level >= 1
        assert res.found > 0


class TestConfigWiring:
    def test_overload_policy_config_attaches_controller(
        self, tiny_trace, build_system_fn
    ):
        policy = OverloadPolicy(service_rate=0.5, queue_cap=16)
        system = build_system_fn(
            tiny_trace, n_nodes=40, overload_policy=policy, observability=True
        )
        assert system.network.admission is not None
        assert system.network.admission.policy is policy

    def test_mini_storm_raises_no_unhandled_exceptions(
        self, tiny_trace, build_system_fn
    ):
        # End-to-end smoke at the tightest plausible policy: every query
        # must come back as a *result* (possibly empty/degraded), never
        # as an escaped BackpressureError.
        system = build_system_fn(
            tiny_trace,
            n_nodes=40,
            observability=True,
            overload_policy=OverloadPolicy(
                service_rate=0.05, queue_cap=8, divert_attempts=3
            ),
        )
        rng = np.random.default_rng(3)
        system.publish_corpus(tiny_trace.corpus, rng)
        degraded = 0
        for i in range(40):
            q = popular_query(tiny_trace, rank=1 + (i % 3))
            res = system.retrieve(system.random_origin(rng), q, 8)
            degraded += bool(res.degradation_level)
        adm = system.network.admission
        assert adm.admitted > 0
        assert 0.0 <= adm.shed_rate < 1.0
