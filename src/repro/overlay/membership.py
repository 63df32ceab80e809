"""Membership protocol: bootstrap-mediated joins.

§3.4.2 (Fig. 5) makes the bootstrap node an active participant: it
holds the sampled-trace statistics (remap knees, hot regions with their
degrees of hotness) and hands them to every joining node, which then
*names itself* — uniformly, or biased into hot regions.  The ID
generation strategy is injected as a callable so this module stays
independent of :mod:`repro.core` (which provides the hot-region namer).

Message accounting: contacting the bootstrap costs one request plus one
reply; announcing the join routes to the new ID's neighborhood in
O(log N) hops, all charged to the shared sink under ``"join"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..sim.node import PeerNode
from .base import Overlay

__all__ = ["Bootstrap", "JoinResult"]

IdNamer = Callable[[np.random.Generator], int]


@dataclass
class JoinResult:
    node: PeerNode
    join_messages: int
    retries: int


class Bootstrap:
    """The well-known rendezvous node of §3.4.2.

    Carries an opaque ``naming_info`` payload (the knees/hot-region
    statistics produced by :mod:`repro.core.knees` and consumed by
    :mod:`repro.core.loadbalance`) plus the sample data set used by the
    §3.5.1 first-hop optimization.
    """

    def __init__(
        self,
        overlay: Overlay,
        *,
        naming_info: object = None,
        sample_set: object = None,
    ) -> None:
        self.overlay = overlay
        self.naming_info = naming_info
        self.sample_set = sample_set
        self.node: Optional[PeerNode] = None

    def seed(self, node_id: int, capacity: Optional[int] = None) -> PeerNode:
        """Create the very first overlay node (the bootstrap itself)."""
        if self.node is not None:
            raise RuntimeError("bootstrap already seeded")
        self.node = self.overlay.add_node(node_id, capacity=capacity)
        return self.node

    def join(
        self,
        namer: IdNamer,
        rng: np.random.Generator,
        *,
        capacity: Optional[int] = None,
        max_retries: int = 16,
    ) -> JoinResult:
        """Run the join protocol for one new node.

        1. Request naming info from the bootstrap (2 messages: request
           + reply with knees/hot-regions/sample set).
        2. Generate an ID with ``namer`` (Fig. 5), retrying on the rare
           collision with an existing node.
        3. Route a join announcement from the bootstrap to the new ID's
           neighborhood (O(log N) ``join`` messages).
        """
        if self.node is None:
            raise RuntimeError("bootstrap not seeded; call seed() first")
        sink = self.overlay.network.sink
        sink.charge("join", 2)  # naming-info request + reply
        retries = 0
        node_id = namer(rng)
        while node_id in self.overlay.ring:
            retries += 1
            if retries > max_retries:
                raise RuntimeError(
                    f"could not find a free node id after {max_retries} retries"
                )
            node_id = namer(rng)
        before = sink.count("join")
        route = self.overlay.route(self.node.node_id, node_id, kind="join")
        node = self.overlay.add_node(node_id, capacity=capacity)
        join_msgs = 2 + (sink.count("join") - before)
        if not route.succeeded and route.home is None:  # pragma: no cover
            raise RuntimeError("join announcement could not be routed")
        return JoinResult(node=node, join_messages=join_msgs, retries=retries)

