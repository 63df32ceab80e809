"""Tornado-like structured overlay.

The paper builds Meteorograph on Tornado [11], a Pastry-style overlay
(by the same authors) over a single-dimensional hash space.  Tornado's
internals are out of the supplied text's scope, so this module provides
the documented substitution (DESIGN.md §2): an overlay with

* **prefix routing** over an m-way digit tree — O(log N) greedy hops;
* a **leaf set** of the nearest nodes in key order, which both
  guarantees greedy convergence to the numerically closest node and
  exposes the linear "closest neighbor" ordering Meteorograph's
  displacement chain and similarity walk require.

Routing is greedy strict-descent on ring distance to the key: at each
node the candidate set is (leaf set ∪ routing-table row ∪ self) minus
dead nodes, and the message moves to the candidate closest to the key
if that improves on the current node.  Ring distance to a fixed key is
unimodal along the ring, so the only stopping point with a live,
complete leaf set is the global (live) minimum — the home node.

The candidate set at node ``n`` depends only on ``n``, the row ``r`` the
key selects (the length of the digit prefix ``n`` and the key share) and
the membership view — not on the key itself.  So it is compiled lazily
per touched ``(n, r)`` into a **sorted tuple** (a *compiled ring*),
kept until a membership change reaches it (``_set_view``), and the
greedy choice — the lexicographic arg-min of
``(ring_distance(c, key), c)`` over the set — is one bisect: the
circularly nearest member of a sorted set is one of the key's two
circular neighbours in it.  Liveness is not part of the compiled state
(``fail()`` does not bump the epoch), so a hop peeks the winner's
liveness once; only a dead winner makes the hop scan the same tuple for
the best *live* member — the same arg-min restricted to live nodes,
which is why the slow path is exact rather than approximate.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from ..sim.linkfaults import MessageLossError
from ..sim.network import Network
from .base import Overlay, RouteResult, RoutingError
from .idspace import KeySpace, SortedKeyRing
from .routing import CANDIDATE_LIMIT, DigitCodec, prefix_row

__all__ = ["TornadoOverlay"]

#: Hard cap on route length; strict descent makes this unreachable in
#: healthy overlays, so hitting it indicates a logic error, not load.
_MAX_ROUTE_HOPS = 512


class TornadoOverlay(Overlay):
    """Prefix-routing overlay with leaf sets over a linear key space.

    Parameters
    ----------
    space, network:
        Key space and message fabric.
    digit_bits:
        Digits are base ``2**digit_bits``.  The default of 2 (4-way
        tree) matches the paper's observed O(log N) ≈ 6.91 hops at
        N = 10,000 (log₄ 10⁴ ≈ 6.6).
    leaf_set_size:
        Leaf-set radius: this many neighbors on *each* side.
    """

    def __init__(
        self,
        space: KeySpace,
        network: Network,
        *,
        digit_bits: int = 2,
        leaf_set_size: int = 4,
        latency_map=None,
    ) -> None:
        super().__init__(space, network)
        if leaf_set_size < 1:
            raise ValueError(f"leaf_set_size must be >= 1, got {leaf_set_size}")
        self.codec = DigitCodec(space, digit_bits)
        self.leaf_set_size = leaf_set_size
        #: Optional :class:`~repro.sim.topology.LatencyMap`.  When set,
        #: routing-table entries are chosen proximity-aware (Pastry/
        #: Tornado style): the physically nearest of a few candidates
        #: sharing the required prefix.  Hop counts are unchanged;
        #: path *latency* drops (see the X-PROX experiment).
        self.latency_map = latency_map
        #: Membership view used for routing state.  ``stabilize()`` swaps
        #: in a live-only ring, modelling post-failure repair.
        self._view: SortedKeyRing = self.ring
        #: Monotone membership epoch: bumped by every registration change
        #: and by ``stabilize()``.  The memos below always equal a
        #: from-scratch build over the current view: a change drops only
        #: the ones its difference reaches; see OBSERVABILITY.md.
        self._epoch = 0
        #: The sorted view keys the memos were built over (``_view`` may
        #: be ``ring`` itself, which registration mutates in place).
        self._memo_keys: list[int] = list(self._view)
        self._leaf_sets: dict[int, list[int]] = {}
        #: Compiled rings: ``_rings[r][n]`` is the sorted tuple of
        #: ``{n} ∪ row_r(n) ∪ leaf_set(n)`` (row ``num_digits`` — the key
        #: is ``n`` itself — has no table row), built on first touch.
        self._rings: list[dict[int, tuple[int, ...]]] = [
            {} for _ in range(self.codec.num_digits + 1)
        ]
        #: ``_row_owners[r][p]``: owners with a compiled row-``r`` ring
        #: whose first ``r`` digits are ``p`` — they share row ``r``'s
        #: blocks, so one block change invalidates them together.
        self._row_owners: list[dict[int, set[int]]] = [
            {} for _ in range(self.codec.num_digits)
        ]
        #: Nodes whose leaf set was built while they were outside the
        #: view (e.g. recovered after a ``stabilize()``): their memos
        #: hang on a key position, not a member, so any change drops them.
        self._off_view: set[int] = set()

    # -- membership hooks ------------------------------------------------

    @property
    def membership_epoch(self) -> int:
        """Current membership epoch (cache-validity token)."""
        return self._epoch

    def _set_view(self, view: SortedKeyRing) -> None:
        """Start a new epoch over ``view``, dropping only the memos the
        membership difference from the old view reaches."""
        self._epoch += 1
        self._view = view
        old = self._memo_keys
        self._memo_keys = list(view)
        # Every memoised ring hangs on a memoised leaf set.
        dropped = self._drop_reached(old, self._memo_keys) if self._leaf_sets else 0
        obs = self.network.obs
        if obs.enabled:
            obs.metrics.counter("routing.rings_dropped", dropped)

    def _drop_reached(self, old: list[int], new: list[int]) -> int:
        """Drop the memos a change of view keys from ``old`` to ``new``
        reaches; returns the number of compiled rings dropped.

        * the leaf set, and every compiled ring, of each node within
          ``leaf_set_size`` positions of a changed member — in the old
          view for a removal, the new one for an addition, modulo the
          view size (a ring of at most 2L+1 nodes drops whole);
        * every memo of an off-view node (see ``_off_view``);
        * the row-``r`` rings of an owner group when a changed member
          falls in one of its blocks among the candidates
          :func:`prefix_row` consults there (the first node, or the
          first ``CANDIDATE_LIMIT`` under a latency selector), counted
          in the old view: a removal was one of them, an addition lands
          before the last of them or in a block that held fewer.

        What survives equals a from-scratch build over ``new`` (the
        oracle in ``tests/overlay/test_membership_delta.py``).
        """
        old_set = set(old)
        changed = old_set.symmetric_difference(new)
        stale, self._off_view = self._off_view, set()
        radius = self.leaf_set_size
        for c in changed:
            keys = old if c in old_set else new
            i = bisect_left(keys, c)
            stale.update(keys[(i + k) % len(keys)] for k in range(-radius, radius + 1))
        dropped = 0
        limit = 1 if self.latency_map is None else CANDIDATE_LIMIT
        digit_bits = self.codec.digit_bits
        for r, groups in enumerate(self._row_owners):
            if not groups:
                continue
            block_shift = self.codec.key_bits - (r + 1) * digit_bits
            rings = self._rings[r]
            for c in changed:
                prefix = c >> (block_shift + digit_bits)
                owners = groups.get(prefix)
                if owners is None:
                    continue
                lo = bisect_left(old, c >> block_shift << block_shift)
                if bisect_left(old, c, lo) - lo < limit:
                    del groups[prefix]
                    for owner in owners:
                        dropped += rings.pop(owner, None) is not None
        for node_id in stale:
            self._leaf_sets.pop(node_id, None)
            for rings in self._rings:
                dropped += rings.pop(node_id, None) is not None
        return dropped

    def _on_membership_change(self) -> None:
        # A registration change makes any live-only view stale too.
        self._set_view(self.ring)

    def stabilize(self) -> None:
        """Route over live nodes only (§3.6 failover repair); like every
        membership change, only the memos the change reaches are rebuilt."""
        self._set_view(
            SortedKeyRing(self.space, (nid for nid in self.ring if self.network.is_alive(nid)))
        )

    # -- routing state ------------------------------------------------------

    def _row(self, node_id: int, r: int) -> list[Optional[int]]:
        """``node_id``'s routing-table row ``r`` over the current view.

        Built on demand and not retained: the compiled ring is the one
        memo of a row, and a membership change that reaches one of the
        row's blocks drops it (``_set_view``).
        """
        lmap = self.latency_map
        return prefix_row(
            node_id,
            r,
            self.codec,
            self._view,
            None if lmap is None else lmap.nearest,
            self.network.obs,
        )

    def leaf_set(self, node_id: int) -> list[int]:
        """Up to ``leaf_set_size`` nearest nodes on each side (ring order).

        Memoised: the per-node list is built once and served from cache
        until a membership change within ``leaf_set_size`` positions
        drops it (the old per-hop rebuild dominated the routing cost).
        Callers must not mutate the returned list.
        """
        cached = self._leaf_sets.get(node_id)
        if cached is not None:
            return cached
        if node_id not in self._view:
            self._off_view.add(node_id)
        out: list[int] = []
        if len(self._view) > 1:
            pred: list[int] = []
            cur = node_id
            for _ in range(self.leaf_set_size):
                cur = self._view.successor(self.space.wrap(cur + 1))
                if cur == node_id or cur in out:
                    break
                out.append(cur)
            succ_only = tuple(out)
            cur = node_id
            for _ in range(self.leaf_set_size):
                cur = self._view.predecessor(cur)
                if cur == node_id or cur in pred or cur in succ_only:
                    break
                pred.append(cur)
            out.extend(pred)
        self._leaf_sets[node_id] = out
        return out

    def _compile_ring(self, node_id: int, r: int) -> tuple[int, ...]:
        """Build and memoise the compiled ring of ``(node_id, r)``."""
        members = {node_id, *self.leaf_set(node_id)}
        if r < self.codec.num_digits:
            members.update(self._row(node_id, r))
            members.discard(None)
            prefix = node_id >> (self.codec.key_bits - r * self.codec.digit_bits)
            self._row_owners[r].setdefault(prefix, set()).add(node_id)
        ring = tuple(sorted(members))
        self._rings[r][node_id] = ring
        obs = self.network.obs
        if obs.enabled:
            obs.metrics.counter("routing.rings_compiled")
        return ring

    def _live_argmin(self, ring: tuple[int, ...], key: int, current: int) -> int:
        """The hop's slow path: arg-min of ``(ring_distance(c, key), c)``
        over the *live* members of ``ring``.

        Runs only when the unrestricted arg-min is dead or deregistered
        (stale tables after ``fail()``).  ``current`` holds the message,
        so it is the baseline whether or not the scan reaches it.  Rare
        on a healthy overlay but every other hop of a §4.3 failure study,
        hence the inlined distance.
        """
        obs = self.network.obs
        if obs.enabled:
            # A degradation announces itself: each count is one hop that
            # paid the linear scan because its table entry was stale.
            obs.metrics.counter("routing.dead_argmin_scans")
        modulus = self.space.modulus
        nodes = self.network._nodes  # noqa: SLF001 - liveness peek
        best = current
        best_d = self.space.ring_distance(current, key)
        for cand in ring:
            node = nodes.get(cand)
            if node is None or not node.alive:
                continue
            d = cand - key
            if d < 0:
                d = -d
            rd = modulus - d
            if rd < d:
                d = rd
            if d < best_d or (d == best_d and cand < best):
                best, best_d = cand, d
        return best

    # -- key→node ---------------------------------------------------------------

    def home(self, key: int) -> int:
        """Numerically closest registered node (ring metric)."""
        self.space.validate(key)
        return self.ring.closest(key)

    # -- routing ---------------------------------------------------------------------

    def route(
        self,
        origin: int,
        key: int,
        *,
        kind: str = "route",
        max_hops: Optional[int] = None,
    ) -> RouteResult:
        self.space.validate(key)
        node = self.network._nodes.get(origin)  # noqa: SLF001 - one lookup
        if node is None:
            raise KeyError(f"origin {origin} not in overlay")
        if not node.alive:
            raise RoutingError(f"origin {origin} is dead")
        budget = _MAX_ROUTE_HOPS if max_hops is None else max_hops
        result = RouteResult(origin=origin, key=key, home=None, path=[origin])
        tracer = self.network.obs.tracer
        if not tracer.enabled:
            self._route_kernel(result, key, kind, budget, None)
            return result
        with tracer.span("route", origin=origin, key=key, msg_kind=kind) as sp:
            self._route_kernel(result, key, kind, budget, tracer)
            sp.set(hops=result.hops, home=result.home, ok=result.succeeded)
        return result

    def _route_kernel(
        self,
        result: RouteResult,
        key: int,
        kind: str,
        budget: int,
        tracer,
    ) -> None:
        """Greedy strict-descent loop; fills ``result`` in place.

        One kernel serves both the traced and untraced paths (``tracer``
        is None when tracing is off, so the per-hop tracing cost on the
        disabled path is a single ``is not None`` test — the zero-cost
        contract of OBSERVABILITY.md).

        A hop is one bisect.  The row is the inlined
        ``DigitCodec.shared_prefix_len(current, key)`` (``num_digits``
        when they are equal); the compiled ring of ``(current, row)`` is
        the whole candidate set, sorted, so the next hop — the arg-min
        of ``(ring_distance(c, key), c)`` — is the nearer of the key's
        two circular neighbours in it, the smaller id on a tie.  With
        ``succ`` the first member clockwise from the key and ``pred``
        the first counter-clockwise, no member is nearer than
        ``min(cw(key→succ), cw(pred→key))`` on either side, so those
        two one-sided distances decide the comparison the two ring
        distances would.  The winner's liveness is peeked once; a dead
        winner falls to :meth:`_live_argmin` over the same tuple.
        """
        current = result.origin
        modulus = self.space.modulus
        nodes = self.network._nodes  # noqa: SLF001 - hot-path liveness peek
        send = self.network.send
        rings = self._rings
        key_bits = self.codec.key_bits
        digit_bits = self.codec.digit_bits
        path = result.path
        hops = 0
        while True:
            r = (key_bits - (current ^ key).bit_length()) // digit_bits
            ring = rings[r].get(current)
            if ring is None:
                ring = self._compile_ring(current, r)
            i = bisect_left(ring, key)
            pred = ring[i - 1]  # i == 0 wraps to the largest member
            d_pred = key - pred
            if d_pred < 0:
                d_pred += modulus
            if i == len(ring):
                best = ring[0]
                d = best - key + modulus
            else:
                best = ring[i]
                d = best - key
            if d_pred < d or (d_pred == d and pred < best):
                best = pred
            if best == current:
                break
            node = nodes.get(best)
            if node is None or not node.alive:
                best = self._live_argmin(ring, key, current)
                if best == current:
                    break
            if hops >= budget:
                result.succeeded = False
                result.home = current
                return
            try:
                send(current, best, kind)
            except MessageLossError:
                # The hop was charged but never arrived (link fault or
                # partition cut): the route stalls where it stands, same
                # contract as budget exhaustion, so the retry machinery
                # can resume from the stall point.
                result.succeeded = False
                result.home = current
                return
            if tracer is not None:
                tracer.event("hop", src=current, dst=best)
            path.append(best)
            hops += 1
            current = best
        result.home = current
        # The route "succeeded" if it reached the best live node for the key.
        live_best = self.live_home(key)
        result.succeeded = live_best is not None and current == live_best
