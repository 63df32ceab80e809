"""The compiled-ring route kernel against the scan kernel it replaced.

The reference router below is the pre-compiled-ring implementation,
kept here as the oracle (ROADMAP aim 2: reference semantics live in
tests): at every hop it rebuilds the candidate list — the routing-table
row the key selects, primary entry first, then the leaf set — and scans
it linearly with a liveness peek and a ring distance per candidate.
Twin overlays with identical membership, liveness and fault planes must
produce the identical ``path``, ``home``, ``succeeded`` and message bill
from either router.
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from latency_plane import EuclideanPlane

from repro.overlay.base import RouteResult
from repro.overlay.idspace import PAPER_MODULUS, KeySpace
from repro.overlay.tornado import _MAX_ROUTE_HOPS, TornadoOverlay
from repro.sim.linkfaults import LinkFaultPlane, MessageLossError
from repro.sim.network import Network

# -- the oracle ---------------------------------------------------------------


def reference_candidates(overlay: TornadoOverlay, node_id: int, key: int) -> list[int]:
    """Routing-table candidates at ``node_id`` for forwarding toward ``key``
    (formerly ``PrefixRoutingTable.next_hop_candidates``): the entry
    extending the shared prefix by the key's next digit first, then the
    rest of that row as detours around a dead primary; the owner itself
    is never a candidate, and a key equal to the owner has none."""
    codec = overlay.codec
    r = codec.shared_prefix_len(node_id, key)
    if r >= codec.num_digits:
        return []
    row = overlay._row(node_id, r)
    want = codec.digit(key, r)
    primary = row[want]
    out = []
    if primary is not None and primary != node_id:
        out.append(primary)
    for d, nid in enumerate(row):
        if d != want and nid is not None and nid != node_id:
            out.append(nid)
    return out


def reference_leaf_set(keys, node_id: int, radius: int) -> list[int]:
    """The leaf set of ``node_id`` over the sorted view ``keys``, from
    scratch: up to ``radius`` successors of its position, then up to
    ``radius`` predecessors, each other member at most once.  A node
    outside the view sits between its two neighbours in key order."""
    n = len(keys)
    if n <= 1:
        return []
    i = bisect_left(keys, node_id)
    member = i < n and keys[i] == node_id
    others = n - member
    succ = [keys[(i + member + k) % n] for k in range(min(radius, others))]
    pred = [keys[(i - 1 - k) % n] for k in range(min(radius, others - len(succ)))]
    return succ + pred


def brute_live_home(overlay: TornadoOverlay, key: int):
    dist = overlay.space.ring_distance
    live = [nid for nid in overlay.ring if overlay.network.is_alive(nid)]
    return min(live, key=lambda nid: (dist(nid, key), nid)) if live else None


def reference_route(overlay, origin, key, *, kind="route", max_hops=None) -> RouteResult:
    """Greedy strict descent by linear scan of row ∪ leaf set per hop,
    both rebuilt from the view's keys (no memo of the overlay's is read,
    so a stale memo cannot pass for the reference)."""
    dist = overlay.space.ring_distance
    network = overlay.network
    view_keys = list(overlay._view)
    budget = _MAX_ROUTE_HOPS if max_hops is None else max_hops
    result = RouteResult(origin=origin, key=key, home=None, path=[origin])
    current = origin
    hops = 0
    while True:
        best, best_d = current, dist(current, key)
        leaves = reference_leaf_set(view_keys, current, overlay.leaf_set_size)
        for cand in reference_candidates(overlay, current, key) + leaves:
            if not network.is_alive(cand):
                continue
            d = dist(cand, key)
            if d < best_d or (d == best_d and cand < best):
                best, best_d = cand, d
        if best == current:
            break
        if hops >= budget:
            result.succeeded = False
            result.home = current
            return result
        try:
            network.send(current, best, kind)
        except MessageLossError:
            result.succeeded = False
            result.home = current
            return result
        result.path.append(best)
        hops += 1
        current = best
    result.home = current
    result.succeeded = current == brute_live_home(overlay, key)
    return result


# -- twin worlds --------------------------------------------------------------


def make_world(ids, modulus, digit_bits, leaf_set_size, *, proximity, fault_seed):
    lmap = None
    if proximity:
        lmap = EuclideanPlane()
        lmap.place_random(ids, np.random.default_rng(7))
    network = Network()
    if fault_seed is not None:
        network.attach_link_faults(LinkFaultPlane(fault_seed, drop_prob=0.15, dup_prob=0.1))
    overlay = TornadoOverlay(
        KeySpace(modulus), network,
        digit_bits=digit_bits, leaf_set_size=leaf_set_size, latency_map=lmap,
    )
    overlay.add_nodes((nid, None) for nid in ids)
    return overlay


def edge_keys(ids, modulus, rng):
    """Keys at the numeric edges: 0, ℜ−1, node ids, ids ± 1, and the
    midpoints of member pairs (both arcs; floor and ceiling of odd gaps),
    where two candidates are equidistant and the smaller id must win."""
    keys = {0, modulus - 1}
    picks = [int(i) for i in rng.integers(0, len(ids), size=min(len(ids), 10))]
    for i in picks:
        a = ids[i]
        keys.update(((a - 1) % modulus, a, (a + 1) % modulus))
        # Ring neighbours share leaf sets; a far member meets ``a`` in a row.
        for b in (ids[(i + 1) % len(ids)], ids[(i + 2) % len(ids)], ids[picks[0]]):
            gap = (b - a) % modulus
            for start, arc in ((a, gap), (b, modulus - gap)):
                keys.add((start + arc // 2) % modulus)
                keys.add((start + -(-arc // 2)) % modulus)
    keys.update(int(k) for k in rng.integers(0, modulus, size=10))
    return sorted(keys)


def assert_twins_route_alike(new, ref, rng, max_hops):
    ids = list(new.ring)
    live = [nid for nid in ids if new.network.is_alive(nid)]
    if not live:
        return
    for key in edge_keys(ids, new.space.modulus, rng):
        origin = live[int(rng.integers(0, len(live)))]
        got = new.route(origin, key, max_hops=max_hops)
        want = reference_route(ref, origin, key, max_hops=max_hops)
        assert (got.path, got.home, got.succeeded) == (want.path, want.home, want.succeeded), (
            origin, key, max_hops,
        )
        assert new.network.sink.snapshot() == ref.network.sink.snapshot()
        if new.network.link_faults is not None:
            # Same stall points and the same charged messages.
            assert new.network.link_faults.snapshot() == ref.network.link_faults.snapshot()


@given(
    n=st.sampled_from([1, 2, 3, 50, 400]),
    digit_bits=st.sampled_from([1, 2, 4]),
    leaf_set_size=st.sampled_from([1, 4]),
    modulus=st.sampled_from([1 << 16, PAPER_MODULUS]),
    seed=st.integers(0, 2**16),
    dead_share=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    stabilize=st.booleans(),
    recover_share=st.sampled_from([0.0, 0.5]),
    max_hops=st.sampled_from([None, 0, 1, 3]),
    proximity=st.booleans(),
    faults=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_compiled_kernel_matches_scan_kernel(
    n, digit_bits, leaf_set_size, modulus, seed, dead_share, stabilize,
    recover_share, max_hops, proximity, faults,
):
    rng = np.random.default_rng(seed)
    ids = sorted({int(k) for k in rng.integers(0, modulus, size=n)})
    worlds = [
        make_world(ids, modulus, digit_bits, leaf_set_size,
                   proximity=proximity, fault_seed=seed if faults else None)
        for _ in range(2)
    ]
    new, ref = worlds
    # Warm routing state first so the liveness changes below meet
    # memoised (stale) state, not a cold overlay.
    assert_twins_route_alike(new, ref, np.random.default_rng(seed + 1), max_hops)
    dead = [nid for nid in ids if rng.random() < dead_share]
    for world in worlds:
        world.network.fail_nodes(dead)
    assert_twins_route_alike(new, ref, np.random.default_rng(seed + 2), max_hops)
    if stabilize:
        for world in worlds:
            world.stabilize()
        assert_twins_route_alike(new, ref, np.random.default_rng(seed + 3), max_hops)
    # Recovered nodes are alive but absent from a stabilized view.
    back = [nid for nid in dead if rng.random() < recover_share]
    for world in worlds:
        for nid in back:
            world.network.recover_node(nid)
    assert_twins_route_alike(new, ref, np.random.default_rng(seed + 4), max_hops)
