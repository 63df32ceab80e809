"""Retry policy: deterministic backoff and graceful degradation.

Two properties are pinned: (1) the jittered delay sequence is a pure
function of ``(seed, token, attempt)`` — identical across runs and
policy instances, different across seeds; (2) under stale routing
tables, delivery with retries strictly dominates plain routing, and two
identically seeded systems produce bit-identical outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maint import RetryPolicy
from repro.sim.failures import fail_fraction



class TestDelayDeterminism:
    def test_same_seed_same_sequence(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        for attempt in range(6):
            for token in (0, 17, 2**40 + 3):
                assert a.delay(attempt, token) == b.delay(attempt, token)

    def test_different_seed_different_sequence(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=2)
        assert [a.delay(i, 9) for i in range(4)] != [b.delay(i, 9) for i in range(4)]

    def test_different_token_different_jitter(self):
        p = RetryPolicy(seed=5)
        assert p.jitter_unit(0, 100) != p.jitter_unit(0, 101)

    def test_jitter_unit_in_unit_interval(self):
        p = RetryPolicy(seed=3)
        units = [p.jitter_unit(a, t) for a in range(8) for t in range(16)]
        assert all(0.0 <= u < 1.0 for u in units)
        # Crude uniformity sanity: the mean of 128 draws is near 0.5.
        assert 0.35 < sum(units) / len(units) < 0.65

    def test_exponential_growth_and_cap(self):
        p = RetryPolicy(base_delay=0.5, max_delay=4.0, jitter=0.0, seed=0)
        assert p.delay(0) == 0.5
        assert p.delay(1) == 1.0
        assert p.delay(2) == 2.0
        assert p.delay(3) == 4.0
        assert p.delay(10) == 4.0  # capped

    def test_jitter_bounds_delay(self):
        p = RetryPolicy(base_delay=1.0, max_delay=64.0, jitter=0.25, seed=7)
        for attempt in range(5):
            d = p.delay(attempt, token=3)
            base = min(64.0, 1.0 * 2**attempt)
            assert base <= d <= base * 1.25


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"jitter": 1.5},
            {"max_total_delay": -0.1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_unset_budget_is_allowed(self):
        assert RetryPolicy(max_total_delay=None).max_total_delay is None
        assert RetryPolicy(max_total_delay=0.0).max_total_delay == 0.0


def _degraded_system(build, tiny_trace, *, seed=47, retry=True, **extra):
    """A churned system with stale tables: 55% dead, no stabilize."""
    kwargs = dict(trace=tiny_trace, n_nodes=150, factor=3, seed=seed)
    if retry:
        kwargs["retry_policy"] = RetryPolicy(seed=seed)
    kwargs.update(extra)
    system = build(**kwargs)
    fail_fraction(system.network, 0.55, np.random.default_rng(seed + 2))
    return system


def _probe(system, *, n=80, seed=99):
    """Fraction of sampled items a remote origin can still retrieve."""
    rng = np.random.default_rng(seed)
    origins = list(system.network.alive_ids())
    item_ids = list(system.replication.holders)
    hits = 0
    probes = []
    for _ in range(n):
        origin = origins[int(rng.integers(len(origins)))]
        item_id = item_ids[int(rng.integers(len(item_ids)))]
        result = system.find(origin, item_id)
        probes.append((item_id, bool(result.found)))
        hits += bool(result.found)
    return hits / n, probes


class TestRouteWithRetry:
    def test_retry_improves_delivery_under_stale_tables(
        self, build_replicated, tiny_trace
    ):
        """Plain routes stall at non-home terminals with stale tables;
        deliver_home recovers every key some live node can serve."""
        system = _degraded_system(build_replicated, tiny_trace, retry=True)
        rng = np.random.default_rng(5)
        origins = list(system.network.alive_ids())
        plain = retried = 0
        for _ in range(80):
            origin = origins[int(rng.integers(len(origins)))]
            key = system.space.random_key(rng)
            r0 = system.overlay.route(origin, key)
            plain += bool(r0.succeeded and system.network.is_alive(r0.home))
            r1 = system.deliver_home(origin, key)
            retried += bool(r1.succeeded and system.network.is_alive(r1.home))
        assert retried == 80  # a live node always exists for every key
        assert retried > plain

    def test_same_seed_identical_outcomes(self, build_replicated, tiny_trace):
        _, a = _probe(_degraded_system(build_replicated, tiny_trace, retry=True))
        _, b = _probe(_degraded_system(build_replicated, tiny_trace, retry=True))
        assert a == b

    def test_maint_counters_emitted(self, build_replicated, tiny_trace):
        system = _degraded_system(build_replicated, tiny_trace, retry=True, observability=True)
        _probe(system, n=60)
        counters = system.obs.metrics.counters
        assert counters.get("maint.retries", 0) > 0
        assert "maint.deliver" in system.obs.metrics.timers
        # Backoff delays were observed once per retry.
        dist = system.obs.metrics.distributions["maint.backoff_delay"]
        assert dist.count == counters["maint.retries"]

    def test_delivered_home_is_live(self, build_replicated, tiny_trace):
        system = _degraded_system(build_replicated, tiny_trace, retry=True)
        rng = np.random.default_rng(13)
        origins = list(system.network.alive_ids())
        for _ in range(40):
            origin = origins[int(rng.integers(len(origins)))]
            key = system.space.random_key(rng)
            route = system.deliver_home(origin, key)
            assert route.succeeded
            assert system.network.is_alive(route.home)
            # The accumulated path starts at the true origin.
            assert route.path[0] == origin
            assert route.path[-1] == route.home

    def test_without_policy_deliver_home_is_plain_route(self, build_replicated, tiny_trace):
        system = _degraded_system(build_replicated, tiny_trace, retry=False)
        rng = np.random.default_rng(13)
        key = system.space.random_key(rng)
        origin = next(iter(system.network.alive_ids()))
        assert (
            system.deliver_home(origin, key).path
            == system.overlay.route(origin, key).path
        )


class TestBackoffBudget:
    """``max_total_delay`` caps the accumulated backoff, not the outcome:
    an exhausted budget degrades straight to the live-neighbor fallback."""

    def test_zero_budget_skips_every_retry(self, build_replicated, tiny_trace):
        system = _degraded_system(
            build_replicated,
            tiny_trace,
            retry=False,
            retry_policy=RetryPolicy(seed=47, max_total_delay=0.0),
            observability=True,
        )
        _probe(system, n=40)
        counters = system.obs.metrics.counters
        assert counters.get("maint.retries", 0) == 0
        assert counters.get("maint.retry_gave_up", 0) > 0

    def test_budget_exhaustion_still_delivers_via_fallback(
        self, build_replicated, tiny_trace
    ):
        system = _degraded_system(
            build_replicated,
            tiny_trace,
            retry=False,
            retry_policy=RetryPolicy(seed=47, max_total_delay=0.0),
        )
        rng = np.random.default_rng(5)
        origins = list(system.network.alive_ids())
        for _ in range(40):
            origin = origins[int(rng.integers(len(origins)))]
            route = system.deliver_home(origin, system.space.random_key(rng))
            assert route.succeeded
            assert system.network.is_alive(route.home)

    def test_generous_budget_matches_unbounded_policy(
        self, build_replicated, tiny_trace
    ):
        # A budget wider than the whole exponential ladder changes nothing.
        _, capped = _probe(
            _degraded_system(
                build_replicated,
                tiny_trace,
                retry=False,
                retry_policy=RetryPolicy(seed=47, max_total_delay=1e9),
            )
        )
        _, unbounded = _probe(_degraded_system(build_replicated, tiny_trace, retry=True))
        assert capped == unbounded

    def test_tight_budget_spends_less_backoff(self, build_replicated, tiny_trace):
        def total_backoff(policy):
            system = _degraded_system(
                build_replicated,
                tiny_trace,
                retry=False,
                retry_policy=policy,
                observability=True,
            )
            _probe(system, n=40)
            dist = system.obs.metrics.distributions.get("maint.backoff_delay")
            return dist.count if dist is not None else 0

        tight = total_backoff(RetryPolicy(seed=47, max_total_delay=0.6))
        loose = total_backoff(RetryPolicy(seed=47))
        assert tight < loose
