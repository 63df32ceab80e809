"""Simulated message fabric.

Every transmission in the system — routing forwards, displacement
pushes, pointer fetches, replies, floods — passes through one
:class:`Network`, which is the single authority on (a) which nodes are
alive and (b) the message bill.  Experiments snapshot/diff the attached
:class:`~repro.sim.metrics.MetricSink` to attribute message costs to
individual queries.

Delivery is count-based, matching the paper's evaluation: a ``send``
charges one message and either succeeds (destination alive) or fails.
Latency-based delivery through the event engine is available via
:meth:`Network.send_after` for the time-driven machinery (replica
monitoring, churn).

The network is also the **liveness authority** the fault-tolerance
subsystem (:mod:`repro.maint`) subscribes to: every liveness transition
applied *through the network* — :meth:`Network.fail_node`,
:meth:`Network.recover_node`, :meth:`Network.fail_nodes`,
:meth:`Network.remove_node` — notifies registered listeners, which is
how holder deaths reach the incremental repair engine's dirty set.
Flipping ``PeerNode.alive`` directly bypasses the listeners by design
(it models a silent failure nobody has detected yet).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from ..obs import NULL_OBS, Observability
from .engine import Simulator
from .metrics import MetricSink
from .node import PeerNode

__all__ = ["Network", "DeadNodeError"]


class DeadNodeError(RuntimeError):
    """Raised when a synchronous send targets a failed node."""


class Network:
    """Registry of peers plus message accounting.

    Parameters
    ----------
    sink:
        Metric sink to charge; a fresh one is created when omitted.
    simulator:
        Optional event engine for latency-based delivery.
    obs:
        Observability bundle (trace bus + metrics registry).  Defaults
        to the shared disabled instance; every layer above reads it off
        the network, which keeps the fabric the single wiring point.
    """

    def __init__(
        self,
        sink: Optional[MetricSink] = None,
        simulator: Optional[Simulator] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sink = sink if sink is not None else MetricSink()
        self.simulator = simulator
        self.obs = obs if obs is not None else NULL_OBS
        # Cached flag: send()/send_after() sit on the routing hot path,
        # so the disabled check must be a single attribute load.
        self._obs_on = self.obs.enabled
        #: Optional :class:`repro.overload.AdmissionController`.  When
        #: attached (see :meth:`attach_admission`), every synchronous
        #: send meters the destination's inbox and a saturated node
        #: sheds application traffic by raising
        #: :class:`repro.overload.BackpressureError`; asynchronous
        #: deliveries into a saturated inbox are dropped.  ``None``
        #: (default) keeps the fast path at a single attribute check —
        #: the same zero-cost-when-off contract as ``_obs_on``.
        self.admission = None
        #: Optional :class:`repro.sim.linkfaults.LinkFaultPlane`.  When
        #: attached (see :meth:`attach_link_faults`), every send is
        #: subject to seeded drop/duplication/delay faults and the
        #: current partition cut; ``None`` (default) keeps the fast path
        #: at a single attribute check, same contract as ``admission``.
        self.link_faults = None
        self._nodes: dict[int, PeerNode] = {}
        #: Liveness listeners: ``cb(node_id, change)`` with ``change`` one
        #: of ``"fail"`` / ``"recover"`` / ``"remove"`` /
        #: ``"partition"`` / ``"heal"``.  Fired *after* the transition is
        #: applied.  See :meth:`subscribe_liveness`.
        self._liveness_listeners: list[Callable[[int, str], None]] = []

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def add_node(self, node: PeerNode) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def remove_node(self, node_id: int) -> PeerNode:
        try:
            node = self._nodes.pop(node_id)
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None
        self._notify_liveness(node_id, "remove")
        return node

    def node(self, node_id: int) -> PeerNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def nodes(self) -> Iterator[PeerNode]:
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        return iter(self._nodes.keys())

    def alive_ids(self) -> Iterator[int]:
        return (nid for nid, n in self._nodes.items() if n.alive)

    def is_alive(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def alive_count(self) -> int:
        return sum(1 for n in self._nodes.values() if n.alive)

    # -- message delivery ----------------------------------------------------

    def attach_admission(self, controller):
        """Install an admission controller on the fabric; returns it.

        Per-node service-rate overrides (heterogeneous capability, the
        admission analogue of ``capacity_fn`` storage heterogeneity) are
        seeded from every registered node whose ``service_rate``
        attribute is set.  Nodes added later set their rates via
        ``controller.set_rate``.  Pass ``None`` to detach.
        """
        self.admission = controller
        if controller is not None:
            for node in self._nodes.values():
                rate = node.service_rate
                if rate is not None:
                    controller.set_rate(node.node_id, rate)
        return controller

    def attach_link_faults(self, plane):
        """Install a :class:`~repro.sim.linkfaults.LinkFaultPlane` on the
        fabric; returns it.  Pass ``None`` to detach.  With a plane
        attached every :meth:`send` is subject to the seeded fault
        schedule (a drop surfaces as
        :class:`~repro.sim.linkfaults.MessageLossError`) and every
        :meth:`send_after` to drop/duplication/delay-jitter verdicts;
        detached, the cost is one ``is None`` check per send.
        """
        self.link_faults = plane
        return plane

    def send(self, src: int, dst: int, kind: str = "route") -> PeerNode:
        """Charge one ``kind`` message from ``src`` to ``dst``.

        Returns the destination node.  The message is charged even when
        delivery fails (the sender spent the transmission either way),
        then :class:`DeadNodeError` is raised — or, with an admission
        controller attached and the destination saturated,
        :class:`repro.overload.BackpressureError` (shed load, §DESIGN.md
        "Overload protection"), or, with a fault plane attached and the
        link failing, :class:`repro.sim.linkfaults.MessageLossError`.
        """
        self.sink.charge(kind)
        if self._obs_on:
            self.obs.metrics.counter(f"net.sent.{kind}")
            self.obs.metrics.bucket("net.node_inbox", dst)
        lf = self.link_faults
        if lf is not None:
            lf.sync_send(self, src, dst, kind)
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            raise DeadNodeError(f"destination {dst} is not alive (from {src})")
        adm = self.admission
        if adm is not None:
            adm.arrive(dst, kind)
        return node

    def charge_bulk(self, kind: str, n: int, dsts=None) -> None:
        """Charge ``n`` ``kind`` messages in one call (no delivery).

        The bulk twin of :meth:`send`'s accounting half, for engines
        that have already decided delivery themselves: the batch read
        path replays a duplicate's route and walk bill, and the cascade
        bills its displacement hops.  It checks no liveness, so the
        caller must know each destination is alive; it consults neither
        admission control nor the fault plane, so it raises
        :class:`RuntimeError` when either is attached.  Counters are
        charged identically to ``n`` individual sends.  ``dsts`` carries the ``n`` per-message
        destination ids that keep the ``net.node_inbox`` observability
        bucket exact against ``net.sent.*`` (a length mismatch raises
        :class:`ValueError`); it is only read with observability on, so
        callers should pass ``None`` instead of building it otherwise.
        """
        if self.admission is not None or self.link_faults is not None:
            raise RuntimeError(
                "charge_bulk bypasses admission control and the fault plane; "
                "send each message instead"
            )
        if dsts is not None and len(dsts) != n:
            raise ValueError(f"{len(dsts)} dsts for {n} {kind!r} messages")
        if n == 0:
            return
        self.sink.charge(kind, n)
        if self._obs_on:
            self.obs.metrics.counter(f"net.sent.{kind}", n)
            if dsts is not None:
                bucket = self.obs.metrics.bucket
                for dst in dsts:
                    bucket("net.node_inbox", int(dst))

    def try_send(self, src: int, dst: int, kind: str = "route") -> Optional[PeerNode]:
        """Like :meth:`send` but returns ``None`` instead of raising on a
        dead destination.  Back-pressure still propagates: a shed is a
        live node's *decision*, and callers must handle (divert) it."""
        try:
            return self.send(src, dst, kind)
        except DeadNodeError:
            return None

    def send_after(
        self,
        delay: float,
        src: int,
        dst: int,
        handler: Callable[[PeerNode], None],
        kind: str = "route",
    ) -> None:
        """Deliver asynchronously via the event engine.

        The message is charged at send time; ``handler`` runs at delivery
        time only if the destination is then alive (the drop models a
        node that failed in flight; ``net.async_dead_dropped`` counts
        these so they stay distinguishable from admission sheds).  With
        admission control attached, the destination's inbox is metered
        at *delivery* time — the moment the message would enter the
        queue — and a saturated inbox drops the delivery silently
        (``overload.async_dropped`` counts the drops; there is no caller
        left to divert for).  With a fault plane attached, the message
        may additionally be dropped at send time (charged, never
        scheduled), duplicated (the handler fires twice), or delayed by
        deterministic jitter.
        """
        if self.simulator is None:
            raise RuntimeError("Network has no simulator attached")
        self.sink.charge(kind)
        if self._obs_on:
            self.obs.metrics.counter(f"net.sent.{kind}")
            self.obs.metrics.bucket("net.node_inbox", dst)

        def _deliver() -> None:
            node = self._nodes.get(dst)
            if node is None or not node.alive:
                if self._obs_on:
                    self.obs.metrics.counter("net.async_dead_dropped")
                return
            adm = self.admission
            if adm is not None and not adm.try_arrive(dst, kind):
                if self._obs_on:
                    self.obs.metrics.counter("overload.async_dropped")
                return
            handler(node)

        lf = self.link_faults
        if lf is not None:
            deliver, delay, dup_delay = lf.async_verdict(self, src, dst, kind, delay)
            if not deliver:
                return
            if dup_delay is not None:
                self.simulator.schedule(dup_delay, _deliver)
        self.simulator.schedule(delay, _deliver)

    # -- liveness transitions ---------------------------------------------------

    def subscribe_liveness(self, listener: Callable[[int, str], None]) -> None:
        """Register ``listener(node_id, change)`` for liveness transitions.

        ``change`` is ``"fail"``, ``"recover"``, ``"remove"``,
        ``"partition"`` or ``"heal"``.  Only transitions applied through
        the network notify; this is the contract
        :class:`repro.maint.RepairEngine` builds its dirty set on and
        :class:`repro.maint.AntiEntropyEngine` keys reconciliation off
        (see DESIGN.md, "Fault tolerance" / "Message plane faults").
        """
        self._liveness_listeners.append(listener)

    def _notify_liveness(self, node_id: int, change: str) -> None:
        for cb in self._liveness_listeners:
            cb(node_id, change)

    def fail_node(self, node_id: int) -> bool:
        """Mark one node dead; True if the transition actually happened."""
        node = self._nodes.get(node_id)
        if node is None or not node.alive:
            return False
        node.fail()
        self._notify_liveness(node_id, "fail")
        return True

    def recover_node(self, node_id: int) -> bool:
        """Bring a failed node back (its stored state resurfaces with it)."""
        node = self._nodes.get(node_id)
        if node is None or node.alive:
            return False
        node.recover()
        self._notify_liveness(node_id, "recover")
        return True

    def partition_nodes(self, side: Iterable[int]) -> int:
        """Split the fabric into ``side`` vs everyone else.

        Requires an attached fault plane (the cut lives there).  Every
        node in the declared side gets a ``"partition"`` liveness
        notification so maintenance engines can mark the epoch; returns
        the side size.  A new split replaces any existing one.
        """
        lf = self.link_faults
        if lf is None:
            raise RuntimeError(
                "partition_nodes requires a LinkFaultPlane "
                "(Network.attach_link_faults)"
            )
        members = sorted(nid for nid in side if nid in self._nodes)
        lf.split(members)
        for nid in members:
            self._notify_liveness(nid, "partition")
        return len(members)

    def heal_partition(self) -> int:
        """Reconnect a split fabric; no-op when already connected.

        Every node of the formerly declared side gets a ``"heal"``
        liveness notification — the trigger the anti-entropy engine
        reconciles on; returns how many nodes were notified.
        """
        lf = self.link_faults
        if lf is None or lf.partition is None:
            return 0
        members = sorted(lf.partition)
        lf.heal()
        notified = 0
        for nid in members:
            if nid in self._nodes:
                self._notify_liveness(nid, "heal")
                notified += 1
        return notified

    # -- bulk helpers ----------------------------------------------------------

    def fail_nodes(self, node_ids: Iterable[int]) -> int:
        """Mark nodes dead; returns how many transitions actually happened.

        Liveness listeners fire exactly once per *transition*: ids that
        are already dead (or unknown) are skipped by :meth:`fail_node`,
        so repeated or overlapping kill batches never double-notify the
        repair engine's dirty set
        (``tests/maint/test_liveness_transitions.py`` pins this).
        """
        return sum(1 for nid in node_ids if self.fail_node(nid))

    def total_items(self, include_dead: bool = False) -> int:
        """Total item bodies stored across (alive) nodes."""
        return sum(
            len(n) for n in self._nodes.values() if include_dead or n.alive
        )
