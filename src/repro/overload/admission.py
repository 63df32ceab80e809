"""Admission control: per-node token-bucket inbox meters.

The angle mapping (Eq. 1–5) deliberately concentrates similar items —
and therefore the queries for them — on few home nodes; X-QLOAD and the
``net.node_inbox`` bucket confirm that §3.4's balancers only partially
relieve the concentration.  This module makes the *runtime* survive the
skew: each node gets a bounded inbox/service model, and a saturated
node **rejects with back-pressure** instead of silently absorbing load.

The capacity model is a token bucket over the fabric's global arrival
count, which doubles as a deterministic logical clock (the count-based
experiments have no wall time to meter against):

* every :meth:`AdmissionController.arrive` advances the clock by one;
* a node's backlog drains at ``service_rate`` queued messages per clock
  tick — i.e. the fraction of *total fabric traffic* the node can
  absorb sustained — and grows by one per admitted arrival;
* an arrival that would push the backlog past ``queue_cap`` is **shed**
  when its message kind is in :data:`SHED_KINDS` (application traffic:
  ``publish`` / ``retrieve``); control traffic (routing-table upkeep,
  ``displace`` pushes, repair) is never refused — it is tiny and
  modelled as preempting, so the backlog merely clamps at the cap.

Shedding raises :class:`BackpressureError` out of
:meth:`repro.sim.network.Network.send`; the degradation paths in
:mod:`repro.overload.degrade` catch it and divert to key neighbors.
Everything is deterministic: same seed + same send sequence → the same
sheds, the same breaker transitions, the same diverts.

The controller keeps plain integer ``admitted`` / ``sheds`` tallies so
protocol code and experiments can compute shed rates with observability
off; the ``overload.*`` instruments (see OBSERVABILITY.md) populate
only when the attached bundle is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import NULL_OBS, Observability
from .breaker import CircuitBreaker

__all__ = ["BackpressureError", "OverloadPolicy", "AdmissionController"]

#: Message kinds a saturated node sheds: application traffic only.
SHED_KINDS = frozenset(("publish", "retrieve"))
#: Clock ticks one unit of retry backoff is worth: couples
#: ``RetryPolicy`` delays (simulated seconds) to the arrival clock, so
#: a shed publish's backoff drains the very meters it waits on.
BACKOFF_TICKS = 32.0


class BackpressureError(RuntimeError):
    """Raised when a saturated destination sheds a synchronous send.

    Carries the shedding node and the message kind so callers can
    divert: a rejected ``retrieve`` re-targets the nearest live
    key-neighbor (which, by the paper's clustering property, holds the
    next-most-similar items), a rejected ``publish`` re-enters the
    backoff/detour path.  The message *was* charged — the sender spent
    the transmission, exactly like :class:`~repro.sim.network.DeadNodeError`.
    """

    def __init__(self, node_id: int, kind: str, reason: str = "saturated") -> None:
        super().__init__(f"node {node_id} shed a {kind!r} message ({reason})")
        self.node_id = node_id
        self.kind = kind
        self.reason = reason


@dataclass(frozen=True)
class OverloadPolicy:
    """Capacity model + breaker knobs for one deployment.

    ``service_rate`` is expressed as a fraction of global fabric
    traffic: a node with rate ``r`` drains ``r`` queued messages per
    arrival tick, so it saturates only while receiving more than an
    ``r`` share of all sends.  With uniform traffic over ``N`` nodes
    each node sees a ``1/N`` share; the default ``0.02`` therefore
    leaves an order-of-magnitude headroom at N≈1000 and trips only on
    genuinely hot homes.  ``queue_cap`` bounds the burst a node absorbs
    before shedding (the max inbox depth the X-OVERLOAD acceptance
    criterion checks).
    """

    service_rate: float = 0.02
    queue_cap: int = 64
    #: Consecutive sheds at one destination before its breaker opens.
    breaker_threshold: int = 8
    #: Clock ticks an open breaker stays open before probing resumes.
    breaker_open_for: int = 512
    #: In half-open state, admit 1-in-k deterministic probes.
    breaker_probe_every: int = 4
    #: Live key-neighbors a degraded delivery tries before giving up.
    divert_attempts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.service_rate:
            raise ValueError(f"service_rate must be > 0, got {self.service_rate}")
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {self.queue_cap}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_open_for < 1:
            raise ValueError(
                f"breaker_open_for must be >= 1, got {self.breaker_open_for}"
            )
        if self.breaker_probe_every < 1:
            raise ValueError(
                f"breaker_probe_every must be >= 1, got {self.breaker_probe_every}"
            )
        if self.divert_attempts < 1:
            raise ValueError(
                f"divert_attempts must be >= 1, got {self.divert_attempts}"
            )


class AdmissionController:
    """Per-node inbox meters over a global arrival clock.

    Attach to a fabric with :meth:`repro.sim.network.Network.attach_admission`;
    every synchronous send then consults :meth:`arrive` and every async
    delivery :meth:`try_arrive`.  Per-node ``service_rate`` overrides
    (heterogeneous capability, mirroring ``capacity_fn`` storage
    heterogeneity at build) are seeded from ``PeerNode.service_rate``
    at attach time or set directly via :meth:`set_rate`.
    """

    def __init__(
        self, policy: OverloadPolicy, obs: Optional[Observability] = None
    ) -> None:
        self.policy = policy
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        #: Global arrival count — the deterministic logical clock.
        self.clock = 0
        self.admitted = 0
        self.sheds = 0
        #: node id → [backlog, clock at last drain].
        self._meters: dict[int, list[float]] = {}
        self._rates: dict[int, float] = {}
        self.breaker = CircuitBreaker(policy, self)

    # -- per-node rates ----------------------------------------------------

    def set_rate(self, node_id: int, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"service rate must be > 0, got {rate}")
        self._rates[node_id] = float(rate)

    def rate_of(self, node_id: int) -> float:
        return self._rates.get(node_id, self.policy.service_rate)

    # -- metering ----------------------------------------------------------

    def backlog_of(self, node_id: int) -> float:
        """Current queue depth at ``node_id``, drained to the clock."""
        m = self._meters.get(node_id)
        if m is None:
            return 0.0
        backlog = m[0] - (self.clock - m[1]) * self.rate_of(node_id)
        return backlog if backlog > 0.0 else 0.0

    def saturated(self, node_id: int) -> bool:
        """Would one more sheddable arrival at ``node_id`` be refused?"""
        return self.backlog_of(node_id) + 1.0 > self.policy.queue_cap

    def advance(self, ticks: int) -> None:
        """Advance the clock without an arrival (a modelled idle wait)."""
        if ticks > 0:
            self.clock += int(ticks)

    def try_arrive(self, dst: int, kind: str) -> bool:
        """Meter one arrival at ``dst``; False when the message is shed."""
        p = self.policy
        clock = self.clock = self.clock + 1
        m = self._meters.get(dst)
        if m is None:
            m = self._meters[dst] = [0.0, clock]
        backlog = m[0]
        last = m[1]
        if clock > last:
            backlog -= (clock - last) * self._rates.get(dst, p.service_rate)
            if backlog < 0.0:
                backlog = 0.0
            m[1] = clock
        if backlog + 1.0 > p.queue_cap:
            if kind in SHED_KINDS:
                m[0] = backlog
                self.sheds += 1
                self.breaker.record_rejection(dst)
                if self._obs_on:
                    metrics = self.obs.metrics
                    metrics.counter("overload.shed")
                    metrics.counter(f"overload.shed.{kind}")
                    metrics.bucket("overload.shed_node", dst)
                    metrics.observe("overload.queue_depth", backlog)
                    if self.obs.tracer.enabled:
                        self.obs.tracer.event("shed", node=dst, msg_kind=kind)
                return False
            # Control traffic preempts: always admitted, backlog clamped.
            backlog = float(p.queue_cap) - 1.0
        m[0] = backlog + 1.0
        self.admitted += 1
        if kind in SHED_KINDS:
            # An admitted application message proves the node is serving
            # again — closes a probing breaker, resets the shed streak.
            self.breaker.record_delivery(dst)
        if self._obs_on:
            self.obs.metrics.observe("overload.queue_depth", backlog + 1.0)
        return True

    def arrive(self, dst: int, kind: str) -> None:
        """:meth:`try_arrive` that raises :class:`BackpressureError`."""
        if not self.try_arrive(dst, kind):
            raise BackpressureError(dst, kind)

    # -- reporting ---------------------------------------------------------

    @property
    def shed_rate(self) -> float:
        """Fraction of metered arrivals shed since attach."""
        total = self.admitted + self.sheds
        return self.sheds / total if total else 0.0
