"""Graceful degradation: diverting shed deliveries to key neighbors.

A shed delivery is not a failure — it is a *quality* decision.  By the
paper's clustering property (§3.3) the nodes adjacent to a key's home
hold the next-most-similar items, so a rejected ``retrieve`` can
harvest a partial ranked result from the nearest live **admitting**
key-neighbor instead; a rejected ``publish`` climbs the
:meth:`repro.maint.retry.RetryPolicy.waits` backoff ladder (each wait
advancing the admission clock, draining the very meters it is waiting
on) before falling back to neighbor placement.  Results served this way
carry a ``degradation_level`` — how far down the home-preference order
the delivery landed — so experiments can plot recall against shed rate.

Every home delivery, diverted re-attempts included, goes through
:meth:`Meteorograph.deliver_home`, which consults the destination's
circuit breaker *before* spending any route messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .admission import BACKOFF_TICKS, BackpressureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph

__all__ = ["divert_home", "divert_publish"]


def divert_home(
    system: "Meteorograph",
    key: int,
    *,
    kind: str,
    origin: int,
    exclude: Iterable[int] = (),
) -> tuple[Optional[int], int, int]:
    """Deliver toward the nearest live *admitting* key-neighbor.

    Walks the overlay's home-preference order for ``key`` (increasing
    ring distance — exactly the next-most-similar holders), skipping the
    saturated nominal home and anything in ``exclude``, and routes to
    the first candidate whose breaker admits and whose meters accept the
    delivery.  Tries at most ``policy.divert_attempts`` candidates.

    The detour's transit hops are sent as control traffic and only the
    *final* delivery is metered (explicitly, at the candidate): greedy
    prefix routes to a hot home's ring neighbors almost always pass
    through the hot home itself, so application-kind transit would shed
    every divert at exactly the node being diverted around.

    Returns ``(home, route_hops, level)`` where ``level`` counts how
    many preference positions were passed over (the result's
    degradation level); ``home`` is None when every candidate shed.
    """
    network = system.network
    adm = network.admission
    obs = network.obs
    nominal = system.overlay.home(key)
    skip = set(exclude)
    skip.add(nominal)
    hops = 0
    level = 0
    for cand in system.overlay._homes_by_preference(key):  # noqa: SLF001 - divert order IS the preference order
        if cand in skip or not network.is_alive(cand):
            continue
        level += 1
        if level > adm.policy.divert_attempts:
            level -= 1
            break
        if not adm.breaker.allow(cand):
            continue
        route = system.overlay.route(origin, cand, kind="route")
        hops += route.hops
        if route.home is None or not network.is_alive(route.home):
            continue
        try:
            # Metering the application arrival by hand: admission (which
            # also closes a probing breaker) or a shed that feeds the
            # candidate's own breaker and moves on to the next one.
            adm.arrive(route.home, kind)
        except BackpressureError:
            continue
        if obs.enabled:
            obs.metrics.counter("overload.diverts")
            if obs.tracer.enabled:
                obs.tracer.event("divert", key=key, home=route.home, level=level)
        return route.home, hops, level
    if obs.enabled:
        obs.metrics.counter("overload.divert_failed")
        if obs.tracer.enabled:
            obs.tracer.event("divert_failed", key=key, tried=level)
    return None, hops, max(1, level)


def divert_publish(
    system: "Meteorograph", origin: int, key: int
) -> tuple[Optional[int], int, int]:
    """Back-pressured publish: backoff re-attempts, then neighbor placement.

    With a configured :class:`~repro.maint.retry.RetryPolicy` the
    publish first climbs its backoff ladder — each wait advances the
    admission clock by :data:`~repro.overload.admission.BACKOFF_TICKS`
    per delay unit, so the saturated home drains while the publisher
    backs off, and a re-attempt that gets admitted lands on the *true*
    home (degradation level 0).  Only when the re-attempts are all shed
    does the item divert to the nearest admitting key-neighbor via
    :func:`divert_home`.

    Returns ``(home, route_hops, level)``; ``home`` is None when the
    publish was fully shed (``overload.publish_shed``).
    """
    network = system.network
    policy = system.config.retry_policy
    if policy is not None:
        for wait in policy.waits(network.obs, key):
            network.admission.advance(int(wait * BACKOFF_TICKS))
            try:
                route = system.deliver_home(origin, key, kind="publish")
            except BackpressureError:
                continue
            if route.home is not None and network.is_alive(route.home):
                return route.home, route.hops, 0
    home, hops, level = divert_home(system, key, kind="publish", origin=origin)
    if home is None and network.obs.enabled:
        network.obs.metrics.counter("overload.publish_shed")
    return home, hops, level
