"""Soft-state publishing: owner republish and item expiry (§3.6).

    "Since a data owner will periodically republish data items it
    generated, the corresponding virtual home also needs to
    periodically republishing replicas."

Structured storage overlays of this era (CFS, PAST, Tornado) keep
published data as *soft state*: an item lives for a TTL and survives
only while its owner keeps republishing it.  This yields eventual
cleanup of orphaned data and, combined with §3.6 replication, recovery
from any failure pattern that spares the owner.

:class:`SoftStateManager` tracks item ownership, expires stale copies,
and drives periodic owner republish through the event engine.  The
churn-with-softstate experiment (X-SOFT) shows the canonical trade:
shorter TTLs purge orphans faster but cost more republish traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .meteorograph import Meteorograph

__all__ = ["OwnedItem", "SoftStateManager"]


@dataclass
class OwnedItem:
    """Ownership record: who republishes an item, and when it expires."""

    item_id: int
    owner: int
    keyword_ids: np.ndarray
    weights: np.ndarray
    payload: object
    expires_at: float


class SoftStateManager:
    """Owner-driven republish + TTL expiry over a Meteorograph system.

    Parameters
    ----------
    ttl:
        Item lifetime.  Copies not refreshed within ``ttl`` are purged
        by :meth:`expire_stale`.
    republish_interval:
        Owner republish period; must be < ``ttl`` for live items to
        persist (the classic soft-state inequality).
    """

    def __init__(
        self,
        system: "Meteorograph",
        *,
        ttl: float = 30.0,
        republish_interval: float = 10.0,
    ) -> None:
        if ttl <= 0 or republish_interval <= 0:
            raise ValueError("ttl and republish_interval must be > 0")
        if republish_interval >= ttl:
            raise ValueError(
                f"republish_interval ({republish_interval}) must be < ttl ({ttl}); "
                "otherwise every item expires between refreshes"
            )
        self.system = system
        self.ttl = ttl
        self.republish_interval = republish_interval
        self.records: dict[int, OwnedItem] = {}
        self.republished = 0
        self.expired = 0

    # -- publishing ---------------------------------------------------------

    def _now(self) -> float:
        sim = self.system.network.simulator
        return sim.now if sim is not None else 0.0

    def publish(
        self,
        owner: int,
        item_id: int,
        keyword_ids,
        weights,
        *,
        payload: object = None,
    ):
        """Publish and register ownership for future republishes."""
        kw = np.asarray(keyword_ids, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        result = self.system.publish(owner, item_id, kw, w, payload=payload)
        self.records[item_id] = OwnedItem(
            item_id=item_id,
            owner=owner,
            keyword_ids=kw,
            weights=w,
            payload=payload,
            expires_at=self._now() + self.ttl,
        )
        return result

    def republish_all(self) -> int:
        """One owner-republish round: every live owner refreshes its items.

        A refresh supersedes the previous generation and re-runs the
        full publish path — route, placement, replication — so items
        whose homes died get re-homed; this is the recovery mechanism.
        The old copies the new placement does not reuse are withdrawn,
        one ``withdraw`` message each.  Items of dead owners are left to
        expire.  Returns the number of items refreshed.
        """
        refreshed = 0
        now = self._now()
        for rec in self.records.values():
            if not self.system.network.is_alive(rec.owner):
                continue
            self.system.publish(
                rec.owner,
                rec.item_id,
                rec.keyword_ids,
                rec.weights,
                payload=rec.payload,
            )
            rec.expires_at = now + self.ttl
            refreshed += 1
            self.republished += 1
        return refreshed

    # -- expiry --------------------------------------------------------------

    def expire_stale(self) -> int:
        """Withdraw every copy of the items whose records have expired.

        Expiry is global per item (the record carries the deadline):
        every body copy and the pointer row the item record names go,
        one ``withdraw`` message each from the owner.  Returns copies
        withdrawn.
        """
        ledger, now = self.system.replication, self._now()
        purged = 0
        for rec in [r for r in self.records.values() if r.expires_at <= now]:
            purged += ledger.withdraw(rec.item_id, *ledger.supersede(rec.item_id), src=rec.owner)
            del self.records[rec.item_id]
            self.expired += 1
        return purged

    # -- scheduling ----------------------------------------------------------------

    def schedule(self) -> None:
        """Run republish and expiry periodically on the attached engine."""
        sim = self.system.network.simulator
        if sim is None:
            raise RuntimeError("network has no simulator attached")
        sim.schedule_every(self.republish_interval, lambda: self.republish_all())
        sim.schedule_every(self.ttl / 2.0, lambda: self.expire_stale())

    # -- introspection ----------------------------------------------------------------

    def live_items(self) -> int:
        return len(self.records)

    def orphaned_items(self) -> int:
        """Items whose owner is dead (doomed to expire)."""
        return sum(
            1
            for rec in self.records.values()
            if not self.system.network.is_alive(rec.owner)
        )
