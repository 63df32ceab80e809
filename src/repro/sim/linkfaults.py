"""Deterministic link-fault injection on the message fabric.

Every transmission in the system crosses :meth:`repro.sim.network.
Network.send` / :meth:`~repro.sim.network.Network.send_after`; this
module makes that seam *lossy on demand*.  A :class:`LinkFaultPlane`
attaches to the fabric exactly like admission control
(:meth:`Network.attach_link_faults`, a single ``is None`` attribute
check on the hot path — the same zero-cost-when-off contract as
``_obs_on`` and ``admission``) and injects, per message:

* **drops** — with probability ``drop_prob`` a synchronous send raises
  :class:`MessageLossError` (the message *was* charged: the sender
  spent the transmission and times out); an asynchronous ``send_after``
  is charged and never scheduled.
* **duplicates** — with probability ``dup_prob`` the fabric carries a
  second copy: the duplicate is charged to the sink like any other
  transmission, and an asynchronous delivery schedules its handler a
  second time (jittered later), exactly the at-least-once behaviour
  real networks exhibit.
* **delay jitter** — ``send_after`` delays stretch by up to
  ``delay_jitter`` extra time units, deterministically per message.
* **partitions** — a node-set bipartition (:meth:`split` / :meth:`heal`)
  under which every message crossing the cut is dropped with certainty,
  while intra-side traffic is subject only to the probabilistic faults.

All decisions are **splitmix64-seeded and counter-indexed**: two runs
with the same seed and the same send sequence inject byte-identical
faults (``tests/sim/test_linkfaults.py`` pins this), which is what lets
the chaos harness (:mod:`repro.maint.invariants`) replay fault
schedules and assert machine-checked invariants.

Accounting is conserved by construction and checked by the harness::

    charged == delivered + dropped + duplicated

where every message the plane charges is classified exactly one way:
``delivered`` (an original that reached the fabric's delivery step),
``dropped`` (loss or partition cut), or ``duplicated`` (the extra copy
materialised by duplication, which is itself charged and delivered).
Destination-side discards (dead node at async delivery time, admission
sheds) happen *after* the plane delivers and are accounted separately
(``net.async_dead_dropped`` / ``overload.async_dropped``).

Metrics (when the attached bundle is enabled): ``linkfault.dropped``,
``linkfault.partition_dropped``, ``linkfault.duplicated``,
``linkfault.delayed`` counters and the ``linkfault.delay_jitter``
distribution.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .hashing import splitmix64
from .network import DeadNodeError

__all__ = ["LinkFaultPlane", "MessageLossError"]

_MASK64 = (1 << 64) - 1

# Distinct odd salts per decision channel, so one message's drop,
# duplication, and delay draws are independent hashes of the same
# (seed, counter, link) tuple.
_SALT_DROP = 0x9E3779B97F4A7C15
_SALT_DUP = 0xC2B2AE3D27D4EB4F
_SALT_DELAY = 0x165667B19E3779F9


class MessageLossError(DeadNodeError):
    """Raised when the fault plane drops a synchronous send.

    Subclasses :class:`~repro.sim.network.DeadNodeError` deliberately:
    to the *sender* a lost message is indistinguishable from a dead
    destination — both are timeouts — so every best-effort path that
    already degrades on a dead peer (``try_send``, replica pushes,
    notification fan-out) degrades identically under loss, and the
    :class:`repro.maint.retry.RetryPolicy` detour machinery retries a
    stalled route exactly as it retries one stalled by a death.
    ``reason`` is ``"loss"`` or ``"partition"``.
    """

    def __init__(self, src: int, dst: int, kind: str, reason: str = "loss") -> None:
        super().__init__(
            f"message {kind!r} from {src} to {dst} lost ({reason})"
        )
        self.src = src
        self.dst = dst
        self.kind = kind
        self.reason = reason


class LinkFaultPlane:
    """Seeded per-link fault injector; attach via
    :meth:`repro.sim.network.Network.attach_link_faults`.

    Parameters
    ----------
    seed:
        Splitmix64 seed; together with the internal message counter it
        fully determines every fault decision.
    drop_prob:
        Per-message probability a link drops the message.
    dup_prob:
        Per-message probability the fabric duplicates the message.
    delay_jitter:
        Maximum extra delay (time units) added to ``send_after``
        deliveries; the realised jitter is a deterministic draw in
        ``[0, delay_jitter)``.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        delay_jitter: float = 0.0,
    ) -> None:
        self.seed = seed & _MASK64
        self.set_loss(drop_prob, dup_prob, delay_jitter)
        #: Current bipartition: the frozen "A side" node set, or None
        #: when connected.  A message is cut iff exactly one endpoint
        #: is inside the side.
        self.partition: Optional[frozenset[int]] = None
        #: Monotone per-message counter — the determinism anchor.
        self._n = 0
        # -- conserved accounting (see module docstring) ------------------
        self.charged = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.partition_dropped = 0  # subset of ``dropped``
        self.delayed = 0
        self.splits = 0
        self.heals = 0

    # -- configuration -----------------------------------------------------

    def set_loss(
        self, drop_prob: float = 0.0, dup_prob: float = 0.0, delay_jitter: float = 0.0
    ) -> None:
        """(Re)configure the probabilistic faults; partitions are separate."""
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0,1], got {drop_prob}")
        if not 0.0 <= dup_prob <= 1.0:
            raise ValueError(f"dup_prob must be in [0,1], got {dup_prob}")
        if delay_jitter < 0.0:
            raise ValueError(f"delay_jitter must be >= 0, got {delay_jitter}")
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.delay_jitter = delay_jitter

    def split(self, side: Iterable[int]) -> None:
        """Partition the fabric: ``side`` vs everyone else.

        Prefer :meth:`Network.partition_nodes`, which also notifies the
        liveness listeners the anti-entropy engine subscribes to.
        """
        self.partition = frozenset(side)
        self.splits += 1

    def heal(self) -> None:
        """Reconnect the fabric.  Idempotent."""
        if self.partition is not None:
            self.partition = None
            self.heals += 1

    @property
    def partitioned(self) -> bool:
        return self.partition is not None

    def crosses_cut(self, src: int, dst: int) -> bool:
        """Does a src→dst message cross the current partition cut?"""
        part = self.partition
        if part is None:
            return False
        return (src in part) != (dst in part)

    # -- deterministic draws -----------------------------------------------

    def _draw(self, salt: int, src: int, dst: int) -> float:
        """Uniform-ish deterministic draw in [0, 1) for one decision."""
        h = splitmix64(
            self.seed
            ^ (salt * (self._n + 1) & _MASK64)
            ^ ((src & _MASK64) * 0xD1342543DE82EF95 & _MASK64)
            ^ ((dst & _MASK64) * 0x2545F4914F6CDD1D & _MASK64)
        )
        return h / float(1 << 64)

    # -- the fabric hooks ----------------------------------------------------

    def sync_send(self, network, src: int, dst: int, kind: str) -> None:
        """Fault verdict for one synchronous send (already charged once).

        Raises :class:`MessageLossError` on a drop; on duplication the
        extra copy is charged to the sink (and metered at the
        destination when admission control is attached) before the
        original proceeds to normal delivery.
        """
        self._n += 1
        self.charged += 1
        obs = network.obs if network._obs_on else None
        if self.crosses_cut(src, dst):
            self.dropped += 1
            self.partition_dropped += 1
            if obs is not None:
                obs.metrics.counter("linkfault.dropped")
                obs.metrics.counter("linkfault.partition_dropped")
            raise MessageLossError(src, dst, kind, reason="partition")
        if self.drop_prob > 0.0 and self._draw(_SALT_DROP, src, dst) < self.drop_prob:
            self.dropped += 1
            if obs is not None:
                obs.metrics.counter("linkfault.dropped")
            raise MessageLossError(src, dst, kind, reason="loss")
        if self.dup_prob > 0.0 and self._draw(_SALT_DUP, src, dst) < self.dup_prob:
            # The fabric carried two copies: bill the duplicate like any
            # transmission and meter the destination's inbox twice.
            network.sink.charge(kind)
            self.charged += 1
            self.duplicated += 1
            if obs is not None:
                obs.metrics.counter(f"net.sent.{kind}")
                obs.metrics.counter("linkfault.duplicated")
            adm = network.admission
            if adm is not None:
                adm.try_arrive(dst, kind)
        self.delivered += 1

    def async_verdict(
        self, network, src: int, dst: int, kind: str, delay: float
    ) -> tuple[bool, float, Optional[float]]:
        """Fault verdict for one ``send_after`` (already charged once).

        Returns ``(deliver, delay, dup_delay)``: whether to schedule the
        delivery at all, the (possibly jittered) delay for the original,
        and the delay for a duplicate delivery (None = no duplicate; a
        duplicate is charged here).  Dead-destination discards at
        delivery time are the network's accounting, not the plane's.
        """
        self._n += 1
        self.charged += 1
        obs = network.obs if network._obs_on else None
        if self.crosses_cut(src, dst):
            self.dropped += 1
            self.partition_dropped += 1
            if obs is not None:
                obs.metrics.counter("linkfault.dropped")
                obs.metrics.counter("linkfault.partition_dropped")
            return False, delay, None
        if self.drop_prob > 0.0 and self._draw(_SALT_DROP, src, dst) < self.drop_prob:
            self.dropped += 1
            if obs is not None:
                obs.metrics.counter("linkfault.dropped")
            return False, delay, None
        if self.delay_jitter > 0.0:
            jitter = self.delay_jitter * self._draw(_SALT_DELAY, src, dst)
            if jitter > 0.0:
                delay += jitter
                self.delayed += 1
                if obs is not None:
                    obs.metrics.counter("linkfault.delayed")
                    obs.metrics.observe("linkfault.delay_jitter", jitter)
        dup_delay: Optional[float] = None
        if self.dup_prob > 0.0 and self._draw(_SALT_DUP, src, dst) < self.dup_prob:
            network.sink.charge(kind)
            self.charged += 1
            self.duplicated += 1
            if obs is not None:
                obs.metrics.counter(f"net.sent.{kind}")
                obs.metrics.counter("linkfault.duplicated")
            # The duplicate trails the original by one more jitter draw.
            dup_delay = delay + self.delay_jitter * self._draw(
                _SALT_DELAY ^ _SALT_DUP, src, dst
            )
        self.delivered += 1
        return True, delay, dup_delay

    # -- introspection -------------------------------------------------------

    def conserved(self) -> bool:
        """The accounting invariant the chaos harness asserts."""
        return self.charged == self.delivered + self.dropped + self.duplicated

    def snapshot(self) -> dict[str, int]:
        return {
            "charged": self.charged,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "partition_dropped": self.partition_dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "splits": self.splits,
            "heals": self.heals,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        part = len(self.partition) if self.partition is not None else 0
        return (
            f"LinkFaultPlane(drop={self.drop_prob}, dup={self.dup_prob}, "
            f"jitter={self.delay_jitter}, partitioned={part}, "
            f"charged={self.charged}, dropped={self.dropped})"
        )
