"""Per-destination circuit breakers: closed → open → half-open.

Back-pressure alone still lets every query *spend a route* discovering
that a hot home is saturated.  The breaker stops the hammering: after
``breaker_threshold`` consecutive sheds at one destination its breaker
**opens**, and :meth:`repro.core.meteorograph.Meteorograph.deliver_home`
fast-fails deliveries toward it without charging any route messages.
After ``breaker_open_for`` clock ticks the breaker turns **half-open**
and admits 1-in-``breaker_probe_every`` deliveries as probes — selected
by :func:`repro.sim.hashing.splitmix64`, the hash behind retry jitter
too, so the probe pattern is seed-deterministic and bit-reproducible.  A probe
that gets admitted by the destination's meter closes the breaker; a
probe that is shed re-opens it.

State is kept per destination in a dict that stays empty until the
first shed, so a fabric that never saturates pays one empty-dict check
per delivery and nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.hashing import splitmix64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .admission import AdmissionController, OverloadPolicy

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_MASK64 = (1 << 64) - 1
#: Salts decorrelating the (node, probe ordinal) inputs before hashing,
#: mirroring the token/attempt salts of ``RetryPolicy.jitter_unit``.
_NODE_SALT = 0xD1342543DE82EF95
_PROBE_SALT = 0x2545F4914F6CDD1D

#: Per-destination record layout: [state, shed streak, opened-at clock,
#: probes issued since turning half-open].
_STATE, _STREAK, _OPENED_AT, _PROBES = 0, 1, 2, 3


class CircuitBreaker:
    """Board of per-destination breakers keyed by delivery target.

    Clock and observability come from the owning
    :class:`~repro.overload.admission.AdmissionController`; rejection /
    delivery records come from its meters, so the breaker sees exactly
    the admission decisions, in order.
    """

    def __init__(self, policy: "OverloadPolicy", controller: "AdmissionController") -> None:
        self.policy = policy
        self._ctl = controller
        self._state: dict[int, list] = {}
        #: Total state transitions (any direction) — a cheap liveness
        #: signal for reports even with observability off.
        self.transitions = 0

    def state_of(self, node_id: int) -> str:
        st = self._state.get(node_id)
        return st[_STATE] if st is not None else CLOSED

    def open_count(self) -> int:
        return sum(1 for st in self._state.values() if st[_STATE] == OPEN)

    def allow(self, node_id: int) -> bool:
        """May a delivery toward ``node_id`` proceed right now?

        Closed (or never-shed) destinations always pass.  Open ones
        fast-fail until ``breaker_open_for`` ticks have elapsed, then
        turn half-open; half-open ones admit only the deterministic
        1-in-k probe sequence.
        """
        st = self._state.get(node_id)
        if st is None or st[_STATE] == CLOSED:
            return True
        p = self.policy
        if st[_STATE] == OPEN:
            if self._ctl.clock - st[_OPENED_AT] < p.breaker_open_for:
                return False
            self._transition(node_id, st, HALF_OPEN)
        n = st[_PROBES]
        st[_PROBES] = n + 1
        h = splitmix64(
            (p.seed & _MASK64)
            ^ (node_id * _NODE_SALT & _MASK64)
            ^ (n * _PROBE_SALT & _MASK64)
        )
        return h % p.breaker_probe_every == 0

    def record_rejection(self, node_id: int) -> None:
        """The destination's meter shed a message aimed at ``node_id``."""
        st = self._state.get(node_id)
        if st is None:
            st = self._state[node_id] = [CLOSED, 0, 0, 0]
        st[_STREAK] += 1
        if st[_STATE] == HALF_OPEN:
            # The probe failed: straight back to open.
            self._transition(node_id, st, OPEN)
        elif st[_STATE] == CLOSED and st[_STREAK] >= self.policy.breaker_threshold:
            self._transition(node_id, st, OPEN)

    def record_delivery(self, node_id: int) -> None:
        """An application message was admitted at ``node_id``."""
        state = self._state
        if not state:
            return
        st = state.get(node_id)
        if st is None:
            return
        st[_STREAK] = 0
        if st[_STATE] != CLOSED:
            self._transition(node_id, st, CLOSED)

    def _transition(self, node_id: int, st: list, new_state: str) -> None:
        st[_STATE] = new_state
        self.transitions += 1
        if new_state == OPEN:
            st[_OPENED_AT] = self._ctl.clock
            st[_PROBES] = 0
        elif new_state == CLOSED:
            st[_STREAK] = 0
        obs = self._ctl.obs
        if obs.enabled:
            obs.metrics.counter(f"overload.breaker_{new_state.replace('-', '_')}")
            if obs.tracer.enabled:
                obs.tracer.event("breaker", node=node_id, state=new_state)
