"""Abstract structured-overlay interface.

Meteorograph needs exactly three capabilities from the overlay beneath
it (§2, §3.3):

1. ``route(origin, key)`` — deliver a message to the *home node* of a
   key in O(log N) hops;
2. ``home(key)`` — the deterministic key→node mapping (numerically
   closest node for Tornado/Pastry-style overlays, successor for
   Chord);
3. a **linear ordering** of nodes by key, exposed as
   ``closest_neighbors(node_id)``, which drives the displacement chain
   (Fig. 2 publish) and the similar-item walk (Fig. 2 retrieve).

Everything in :mod:`repro.core` is written against this interface, which
is how the repo demonstrates the paper's §6 claim that the scheme ports
to any overlay with a 1-D hash space.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..sim.network import Network
from ..sim.node import PeerNode
from .idspace import KeySpace, SortedKeyRing

__all__ = ["Overlay", "RouteResult", "RoutingError"]


class RoutingError(RuntimeError):
    """Raised when a route cannot make progress (e.g. partitioned by churn)."""


@dataclass
class RouteResult:
    """Outcome of routing one message.

    ``path`` includes the origin, so ``hops == len(path) - 1``.
    ``messages`` equals hops for plain routing; callers add reply or
    fan-out charges on top when the paper's accounting does.
    """

    origin: int
    key: int
    home: Optional[int]
    path: list[int] = field(default_factory=list)
    succeeded: bool = True

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)

    @property
    def messages(self) -> int:
        return self.hops


class Overlay(abc.ABC):
    """A structured P2P overlay over a 1-D key space.

    Concrete overlays (``TornadoOverlay``, ``ChordOverlay``) maintain a
    full-membership :class:`SortedKeyRing` — the simulator's omniscient
    view — plus per-node routing state derived from it.  Routing honours
    per-node liveness so that the §4.3 failure experiments exercise real
    failover behaviour.
    """

    #: Cap on memoised walk orders; a flush at this size bounds memory
    #: on huge query sweeps without ever serving a stale order.
    _WALK_ORDER_CAP = 512

    def __init__(self, space: KeySpace, network: Network) -> None:
        self.space = space
        self.network = network
        self.ring = SortedKeyRing(space)
        #: (node_id, direction) → materialised, liveness-UNFILTERED
        #: visiting order.  Valid until ring membership changes; callers
        #: filter liveness at consumption time, exactly as the routing
        #: caches do (``fail()`` does not bump the membership epoch).
        self._walk_orders: dict[tuple[int, str], list[int]] = {}

    # -- membership ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of registered nodes (alive or dead)."""
        return len(self.ring)

    def alive_size(self) -> int:
        return self.network.alive_count()

    def node(self, node_id: int) -> PeerNode:
        return self.network.node(node_id)

    def nodes(self) -> Iterator[PeerNode]:
        """Nodes in increasing key order."""
        for nid in self.ring:
            yield self.network.node(nid)

    def add_node(self, node_id: int, capacity: Optional[int] = None) -> PeerNode:
        """Register a node (simulator-level insert; no join messages charged).

        Protocol-level joins, with their message costs, live in
        :mod:`repro.overlay.membership`.
        """
        node = PeerNode(node_id, capacity=capacity)
        self.ring.add(node_id)
        try:
            self.network.add_node(node)
        except ValueError:
            self.ring.discard(node_id)
            raise
        # Cleared here, not in _on_membership_change(): subclasses
        # override the hook without calling super().
        self._walk_orders.clear()
        self._on_membership_change()
        return node

    def add_nodes(self, specs: Iterable[tuple[int, Optional[int]]]) -> list[PeerNode]:
        """Bulk :meth:`add_node`: one ring merge, one cache clear.

        ``specs`` is ``(node_id, capacity)`` pairs.  Routing tables are
        built lazily, so deferring the membership hook to the end is
        semantically identical to per-node adds — but seeding 10⁵ nodes
        goes from O(n²) ring inserts to one sorted merge.
        """
        specs = list(specs)
        self.ring.update(nid for nid, _ in specs)
        nodes: list[PeerNode] = []
        try:
            for nid, cap in specs:
                node = PeerNode(nid, capacity=cap)
                self.network.add_node(node)
                nodes.append(node)
        except ValueError:
            for nid, _ in specs:
                self.ring.discard(nid)
            for node in nodes:
                self.network.remove_node(node.node_id)
            raise
        self._walk_orders.clear()
        self._on_membership_change()
        return nodes

    def remove_node(self, node_id: int) -> PeerNode:
        """Deregister a node entirely (distinct from failing it)."""
        self.ring.discard(node_id)
        node = self.network.remove_node(node_id)
        self._walk_orders.clear()
        self._on_membership_change()
        return node

    def _on_membership_change(self) -> None:
        """Hook for subclasses to invalidate derived routing state."""

    # -- key→node mapping -------------------------------------------------------

    @abc.abstractmethod
    def home(self, key: int) -> int:
        """The node id responsible for ``key`` (ignores liveness)."""

    def live_home(self, key: int) -> Optional[int]:
        """The responsible node among *live* nodes, or None if none live.

        This is the failover target of §3.6: with replicas on the
        numerically closest nodes, the live home holds a replica
        whenever any replica survives.
        """
        nodes = self.network._nodes  # noqa: SLF001 - liveness peek
        if self.ring:
            # The common case — the home itself is alive — without
            # starting the preference walk it heads.
            home = self.home(key)
            node = nodes.get(home)
            if node is not None and node.alive:
                return home
        for nid in self._homes_by_preference(key):
            node = nodes.get(nid)
            if node is not None and node.alive:
                return nid
        return None

    def _homes_by_preference(self, key: int) -> Iterator[int]:
        """Node ids in decreasing preference as home for ``key``.

        Default: increasing ring distance from the key (Tornado-style
        "numerically closest" semantics).  Chord overrides this with the
        successor chain.  An override must yield ``home(key)`` first:
        :meth:`live_home` answers from it alone when it is alive.
        """
        home = self.home(key)
        yield home
        for nid in self.ring.neighbors_outward(key, wrap=True):
            if nid != home:
                yield nid

    # -- routing -------------------------------------------------------------------

    @abc.abstractmethod
    def route(
        self,
        origin: int,
        key: int,
        *,
        kind: str = "route",
        max_hops: Optional[int] = None,
    ) -> RouteResult:
        """Route from node ``origin`` to the home of ``key``.

        Charges one message per forward on ``network.sink`` under
        ``kind``.  With failures present, the route greedily detours
        around dead next-hops and terminates at the closest *live* node
        it can reach; ``succeeded=False`` when it stalls entirely.
        """

    # -- linear neighbor order (the Meteorograph walk) ----------------------------

    def closest_neighbors(
        self, node_id: int, *, wrap: bool = False, alive_only: bool = True
    ) -> Iterator[int]:
        """Nodes ordered by increasing key distance from ``node_id``.

        ``wrap=False`` uses linear (half-circle) distance, matching the
        monotone angle→key mapping; this is the order the displacement
        chain and the similarity walk visit nodes in.
        """
        for nid in self.ring.neighbors_outward(node_id, wrap=wrap):
            if alive_only and not self.network.is_alive(nid):
                continue
            yield nid

    def walk_order(self, node_id: int, direction: str = "both") -> list[int]:
        """The materialised similarity-walk frontier from ``node_id``.

        ``direction="both"`` is the half-circle linear-distance order of
        :meth:`closest_neighbors`; ``"up"``/``"down"`` step through
        successors/predecessors and stop at the end of the key space
        (the angle→key mapping is a half-circle, not a ring).

        Memoised per (node, direction) until membership changes — the
        same epoch trick as Tornado's leaf sets; the old per-query
        recomputation dominated hot-home walk cost.  The returned list
        is liveness-unfiltered and shared: callers must not mutate it,
        and must skip dead nodes themselves (liveness can change without
        a membership event).
        """
        cache_key = (node_id, direction)
        cached = self._walk_orders.get(cache_key)
        if cached is not None:
            return cached
        if direction == "both":
            order = list(self.ring.neighbors_outward(node_id, wrap=False))
        elif direction in ("up", "down"):
            order = []
            ring = self.ring
            space = self.space
            cur = node_id
            seen = {node_id}
            for _ in range(len(ring)):
                nxt = (
                    ring.successor(space.wrap(cur + 1))
                    if direction == "up"
                    else ring.predecessor(cur)
                )
                if nxt in seen:
                    break
                # Half-circle stop: a directional sweep ends at the
                # extreme of the space instead of wrapping around.
                if direction == "up" and nxt < cur:
                    break
                if direction == "down" and nxt > cur:
                    break
                cur = nxt
                seen.add(cur)
                order.append(cur)
        else:
            raise ValueError(f"unknown walk direction {direction!r}")
        if len(self._walk_orders) >= self._WALK_ORDER_CAP:
            self._walk_orders.clear()
        self._walk_orders[cache_key] = order
        return order

    def closest_neighbor(self, node_id: int, *, alive_only: bool = True) -> Optional[int]:
        """The single nearest neighbor in key order, or None."""
        for nid in self.closest_neighbors(node_id, alive_only=alive_only):
            return nid
        return None

    def replica_homes(self, node_id: int, count: int) -> list[int]:
        """The ``count`` nodes with IDs numerically closest to ``node_id``.

        §3.6: replica placement targets.  Uses ring distance so the set
        is rotation-invariant.  A ``count`` below one asks for nothing.
        """
        out: list[int] = []
        if count < 1:
            return out
        for nid in self.ring.neighbors_outward(node_id, wrap=True):
            out.append(nid)
            if len(out) >= count:
                break
        return out

    # -- maintenance ------------------------------------------------------------

    @abc.abstractmethod
    def stabilize(self) -> None:
        """Repair routing state after failures (rebuild over live nodes)."""
