"""Overload protection: admission control, back-pressure, load shedding.

The robustness counterpart to :mod:`repro.maint`'s fault tolerance:
where maint survives nodes *dying*, this package survives nodes
*drowning*.  Three pieces:

* :mod:`~repro.overload.admission` — per-node token-bucket inbox meters
  over a global arrival clock; saturated nodes shed application traffic
  with :class:`BackpressureError`;
* :mod:`~repro.overload.breaker` — per-destination circuit breakers
  (closed → open → half-open, splitmix64-deterministic probing) that
  stop queries from even spending routes on nodes that keep shedding;
  :meth:`Meteorograph.deliver_home`, the one home delivery, consults
  them before routing;
* :mod:`~repro.overload.degrade` — diverting shed retrieves to the
  next-most-similar key-neighbors and shed publishes through the retry
  policy's backoff ladder into neighbor placement.

Wire-up: set ``MeteorographConfig.overload_policy`` (or call
``Network.attach_admission`` on a built system).  With no controller
attached every send pays exactly one attribute check — the same
zero-cost-when-off contract as the observability layer.  See DESIGN.md,
"Overload protection".
"""

from .admission import AdmissionController, BackpressureError, OverloadPolicy
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .degrade import divert_home, divert_publish

__all__ = [
    "AdmissionController",
    "BackpressureError",
    "OverloadPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "divert_home",
    "divert_publish",
]
