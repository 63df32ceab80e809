"""Directory-pointer publication — §3.5.2.

A pointer is published at the item's *Eq.-5 angle key* and names where
the body lives (its Eq.-6 ``publish_key``).  Pointers of similar items
therefore aggregate on the angle band while bodies spread uniformly:
search sweeps the compact pointer band first and then fetches exactly
the bodies it needs.  The angle home keeps the item's own
:class:`~repro.sim.node.StoredItem` as a row of its pointer index
(:attr:`~repro.sim.node.PeerNode.pointers`), so stage 1 of
:func:`repro.core.search.retrieve_with_pointers` is the read engine's
walk over pointer rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.node import StoredItem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["publish_pointer", "withdraw_pointer"]


def publish_pointer(
    system: "Meteorograph",
    origin: int,
    item: StoredItem,
    previous_angle_key: Optional[int] = None,
) -> int:
    """Route the pointer from the body's home to the angle key's home.

    A republish that moved the item's angle key (``previous_angle_key``
    is the key of its earlier row) first withdraws the earlier row, so
    stage 1 cannot promise the old body key.

    Returns the number of ``pointer`` messages charged (the route hops).
    Pointers are small and unbounded per node (§3.5.2 argues their size
    is negligible), so no displacement applies.
    """
    hops = 0
    if previous_angle_key is not None and previous_angle_key != item.angle_key:
        hops = withdraw_pointer(system, origin, item.item_id, previous_angle_key)
    route = system.overlay.route(origin, item.angle_key, kind="pointer")
    assert route.home is not None
    system.network.node(route.home).add_pointer(item)
    return hops + route.hops


def withdraw_pointer(
    system: "Meteorograph", origin: int, item_id: int, angle_key: int
) -> int:
    """Route one ``pointer`` message from ``origin`` to the home of
    ``angle_key`` and take ``item_id``'s row off it, if it is there.

    Returns the route's hops.
    """
    route = system.overlay.route(origin, angle_key, kind="pointer")
    pointers = system.network.node(route.home).pointers
    if pointers is not None and item_id in pointers:
        pointers.remove(item_id)
    return route.hops
