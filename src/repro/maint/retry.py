"""Retry, timeout-backoff, and graceful degradation for home delivery.

Routing in a churning overlay can stall: greedy strict-descent detours
around dead next-hops, but with stale tables (``fail()`` does not bump
the membership epoch — §3.6 stale-table semantics) a route may
terminate at a node that is *not* the live home.  The
:class:`RetryPolicy` wraps publish/retrieve home delivery with bounded
exponential backoff:

1. attempt the route; a route that reaches the live home succeeds;
2. otherwise wait ``base_delay · 2^attempt`` (capped at ``max_delay``)
   plus **deterministic jitter** derived from the run seed and the
   message key — no RNG state, so two runs with the same seed produce
   bit-identical delay sequences (``tests/maint/test_retry.py`` pins
   this) — then re-attempt from the stall point;
3. after ``max_attempts`` the delivery *degrades gracefully*: the
   message is handed to the nearest live key-neighbor of the home
   (the §3.6 failover target, where a surviving replica lives if any
   does) and the detour is recorded.

Backoff waits are recorded, not slept: a delivery never re-enters the
simulator's event loop from inside a query callback.

:meth:`RetryPolicy.waits` is the one backoff ladder.  The route retry
here re-routes from the stall point after each wait; a shed publish
(:func:`repro.overload.degrade.divert_publish`) advances the admission
clock instead, so its saturated home drains while it waits.

Metrics: ``maint.retries`` / ``maint.detours`` /
``maint.delivery_failed`` / ``maint.retry_gave_up`` counters,
``maint.backoff_delay`` distribution, ``maint.deliver`` timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..overlay.base import RouteResult
from ..sim.hashing import splitmix64
from ..sim.linkfaults import MessageLossError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph
    from ..obs import Observability

__all__ = ["RetryPolicy", "route_with_retry"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seed-deterministic jitter.

    ``max_attempts`` counts route attempts including the first; the
    fallback to the nearest live key-neighbor happens only after the
    last attempt still failed.  ``jitter`` is the fractional spread:
    a delay ``d`` becomes ``d · (1 + jitter · u)`` with ``u ∈ [0, 1)``
    drawn deterministically from ``(seed, token, attempt)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 8.0
    jitter: float = 0.25
    seed: int = 0
    #: Total-backoff budget across all of one delivery's retries (same
    #: simulated-seconds unit as the delays).  A retry whose wait would
    #: push the accumulated backoff past the budget is skipped — the
    #: delivery degrades to the fallback immediately and
    #: ``maint.retry_gave_up`` counts the early exit.  None = bounded
    #: only by ``max_attempts``.  Keeps overload diverts from stalling a
    #: query behind a full exponential ladder.
    max_total_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0,1], got {self.jitter}")
        if self.max_total_delay is not None and self.max_total_delay < 0:
            raise ValueError(
                f"max_total_delay must be >= 0 or None, got {self.max_total_delay}"
            )

    def jitter_unit(self, attempt: int, token: int = 0) -> float:
        """Deterministic uniform-ish draw in [0, 1) for one attempt."""
        h = splitmix64(
            (self.seed & _MASK64)
            ^ ((token & _MASK64) * 0xD1342543DE82EF95 & _MASK64)
            ^ ((attempt + 1) * 0x2545F4914F6CDD1D & _MASK64)
        )
        return h / float(1 << 64)

    def delay(self, attempt: int, token: int = 0) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.max_delay, self.base_delay * (2.0**attempt))
        return base * (1.0 + self.jitter * self.jitter_unit(attempt, token))

    def waits(self, obs: "Observability", key: int) -> Iterator[float]:
        """The backoff ladder of one delivery toward ``key``: each wait
        before re-attempt 1, 2, … that ``max_attempts`` and the
        ``max_total_delay`` budget admit.  The caller stops drawing once
        a re-attempt lands; a budget stop counts once, as
        ``maint.retry_gave_up``."""
        spent = 0.0
        for attempt in range(1, self.max_attempts):
            d = self.delay(attempt - 1, token=key)
            if self.max_total_delay is not None and spent + d > self.max_total_delay:
                if obs.enabled:
                    obs.metrics.counter("maint.retry_gave_up")
                    if obs.tracer.enabled:
                        obs.tracer.event(
                            "retry_budget", key=key, attempt=attempt, spent=round(spent, 4)
                        )
                return
            spent += d
            if obs.enabled:
                obs.metrics.counter("maint.retries")
                obs.metrics.observe("maint.backoff_delay", d)
                if obs.tracer.enabled:
                    obs.tracer.event("retry", key=key, attempt=attempt, delay=round(d, 4))
            yield d


def _delivered(system: "Meteorograph", route: RouteResult) -> bool:
    """Did the route land on the live home of its key?"""
    return (
        route.succeeded
        and route.home is not None
        and system.network.is_alive(route.home)
    )


def route_with_retry(
    system: "Meteorograph",
    origin: int,
    key: int,
    *,
    kind: str = "route",
) -> RouteResult:
    """Home delivery under the configured :class:`RetryPolicy`.

    Returns a :class:`~repro.overlay.base.RouteResult` whose ``home``
    is live whenever *any* live node can serve the key: either the
    route (eventually) reached the live home, or the message was handed
    to the nearest live key-neighbor as a recorded detour.  Only when
    the overlay holds no live node at all does the result come back
    failed.
    """
    policy = system.config.retry_policy
    assert policy is not None, "route_with_retry needs config.retry_policy"
    network = system.network
    obs = network.obs
    with obs.metrics.timer("maint.deliver"):
        route = system.overlay.route(origin, key, kind=kind)
        if _delivered(system, route):
            return route
        attempt = 1
        for _ in policy.waits(obs, key):
            retry_from = (
                route.home
                if route.home is not None and network.is_alive(route.home)
                else origin
            )
            retry = system.overlay.route(retry_from, key, kind=kind)
            # Accumulate the true message bill across attempts.
            retry.path = route.path + retry.path[1:]
            retry.origin = origin
            route = retry
            attempt += 1
            if _delivered(system, route):
                return route
        # Graceful degradation: deliver to the nearest live key-neighbor
        # (the §3.6 failover target) and record the detour.
        fallback = system.overlay.live_home(key)
        if fallback is None:
            if obs.enabled:
                obs.metrics.counter("maint.delivery_failed")
                if obs.tracer.enabled:
                    obs.tracer.event("giveup", key=key, attempts=attempt)
            return route
        if route.home is not None and fallback != route.home:
            # One recorded hand-off hop from the stall point.  The
            # hand-off itself crosses the fabric and can be lost (link
            # fault, partition cut): the delivery then fails degraded —
            # home stays at the stall point — instead of crashing the
            # publish/retrieve that asked for it.
            try:
                network.send(route.home, fallback, kind=kind)
            except MessageLossError:
                if obs.enabled:
                    obs.metrics.counter("maint.delivery_failed")
                    if obs.tracer.enabled:
                        obs.tracer.event(
                            "handoff_lost", key=key, home=fallback
                        )
                return route
            route.path.append(fallback)
        route.home = fallback
        route.succeeded = True
        if obs.enabled:
            obs.metrics.counter("maint.detours")
            if obs.tracer.enabled:
                obs.tracer.event(
                    "detour", key=key, home=fallback, attempts=attempt
                )
    return route
