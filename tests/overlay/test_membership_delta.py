"""Incremental change == overall change for the overlay's routing memos.

A membership change (``add_node``, ``add_nodes``, ``remove_node``,
``stabilize()``) drops only the leaf sets and compiled rings its
difference reaches (``TornadoOverlay._set_view``).  The reference here
is the clear-all it replaced, in its cheapest exact form: every memo
that survives must equal the one a from-scratch build computes over the
same view.  The view itself is tracked independently of the overlay —
the registered ring after a registration change, the live nodes at the
last ``stabilize()`` otherwise.

The example budget scales with the Hypothesis profile: tier-1 runs the
default one, ``HYPOTHESIS_PROFILE=ci`` ten times as many examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from latency_plane import EuclideanPlane
from test_route_oracle import reference_leaf_set

from repro.overlay.idspace import PAPER_MODULUS, KeySpace, SortedKeyRing
from repro.overlay.routing import prefix_row
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network

#: Membership steps; every step is followed by a few routes.
STEP_KINDS = ("add", "add_many", "remove", "fail", "fail", "recover", "recover", "stabilize")


class World:
    """One overlay plus the view its memos must match."""

    def __init__(self, ids, modulus, digit_bits, leaf_set_size, proximity, seed):
        self.rng = np.random.default_rng(seed)
        self.lmap = EuclideanPlane() if proximity else None
        if self.lmap is not None:
            self.lmap.place_random(ids, self.rng)
        self.ov = TornadoOverlay(
            KeySpace(modulus), Network(),
            digit_bits=digit_bits, leaf_set_size=leaf_set_size, latency_map=self.lmap,
        )
        self.ov.add_nodes((nid, None) for nid in ids)
        #: None: the view is the registered ring; else the stabilized one.
        self.stabilized = None

    @property
    def view_keys(self) -> list[int]:
        return list(self.ov.ring) if self.stabilized is None else self.stabilized

    def registered(self) -> list[int]:
        return list(self.ov.ring)

    def alive(self) -> list[int]:
        return [nid for nid in self.ov.ring if self.ov.network.is_alive(nid)]

    def fresh_ids(self, count: int) -> list[int]:
        out: set[int] = set()
        while len(out) < count:
            k = int(self.rng.integers(0, self.ov.space.modulus))
            if k not in self.ov.ring:
                out.add(k)
        ids = sorted(out)
        if self.lmap is not None:
            self.lmap.place_random(ids, self.rng)
        return ids

    def step(self, kind: str, seed: int) -> None:
        """One membership step, its choices drawn from ``seed`` (spread
        by a generator: Hypothesis favours small integers), then a few
        routes."""
        draw = np.random.default_rng(seed)
        ov, network = self.ov, self.ov.network
        ids = self.registered()
        pick = ids[int(draw.integers(0, len(ids)))]
        if kind == "add":
            ov.add_node(self.fresh_ids(1)[0])
            self.stabilized = None
        elif kind == "add_many":
            ov.add_nodes((nid, None) for nid in self.fresh_ids(int(draw.integers(1, 5))))
            self.stabilized = None
        elif kind == "remove":
            if self.alive() != [pick]:  # keep one live origin
                ov.remove_node(pick)
                self.stabilized = None
        elif kind == "fail":
            # A run of key-order neighbours, half the time starting at a
            # node that routes from outside the view: failing it with its
            # neighbours keeps it outside the next stabilized view while
            # the change reaches its leaf set.  Half the failures are
            # repaired at once, as the churn scenarios do.
            outside = self.outside_view()
            if outside and draw.random() < 0.5:
                pick = outside[int(draw.integers(0, len(outside)))]
            i = ids.index(pick)
            run = [ids[(i + k) % len(ids)] for k in range(int(draw.integers(1, 4)))]
            live = [nid for nid in run if network.is_alive(nid)]
            if len(self.alive()) > len(live):
                network.fail_nodes(live)
            if draw.random() < 0.5:
                self.stabilize()
        elif kind == "recover":
            dead = [nid for nid in ids if not network.is_alive(nid)]
            if dead:
                network.recover_node(dead[int(draw.integers(0, len(dead)))])
        elif kind == "stabilize":
            self.stabilize()
        self.route_some(seed)

    def stabilize(self) -> None:
        self.ov.stabilize()
        self.stabilized = self.alive()

    def outside_view(self) -> list[int]:
        """Live nodes outside the view: recovered since the last
        ``stabilize()``, they route from their key position."""
        in_view = set(self.view_keys)
        return [nid for nid in self.alive() if nid not in in_view]

    def route_some(self, seed: int) -> None:
        """Routes from up to three live nodes outside the view plus two
        random live ones, to random keys and to keys next to members."""
        rng = np.random.default_rng(seed)
        alive = self.alive()
        origins = self.outside_view()[:3]
        origins += [alive[int(i)] for i in rng.integers(0, len(alive), size=2)]
        ids = self.registered()
        modulus = self.ov.space.modulus
        for origin in origins:
            near = ids[int(rng.integers(0, len(ids)))]
            for key in (int(rng.integers(0, modulus)), (near + 1) % modulus):
                self.ov.route(origin, key)


def assert_memos_match_scratch(world: World) -> None:
    ov = world.ov
    keys = world.view_keys
    assert list(ov._view) == keys
    view = SortedKeyRing(ov.space, keys)
    selector = None if world.lmap is None else world.lmap.nearest
    for nid, leaves in ov._leaf_sets.items():
        assert leaves == reference_leaf_set(keys, nid, ov.leaf_set_size), ("leaf set", nid)
    for r, rings in enumerate(ov._rings):
        for nid, ring in rings.items():
            want = {nid, *reference_leaf_set(keys, nid, ov.leaf_set_size)}
            if r < ov.codec.num_digits:
                want.update(prefix_row(nid, r, ov.codec, view, selector))
                want.discard(None)
            assert ring == tuple(sorted(want)), ("ring", nid, r)


@given(
    n=st.sampled_from([2, 3, 5, 9, 40, 400]),
    digit_bits=st.sampled_from([1, 2, 4]),
    leaf_set_size=st.sampled_from([1, 4]),
    modulus=st.sampled_from([1 << 16, PAPER_MODULUS]),
    proximity=st.booleans(),
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(st.sampled_from(STEP_KINDS), st.integers(0, 2**16)),
        min_size=12, max_size=30,
    ),
)
@settings(deadline=None)  # the example budget is the profile's
def test_incremental_memos_equal_from_scratch(
    n, digit_bits, leaf_set_size, modulus, proximity, seed, steps,
):
    rng = np.random.default_rng(seed)
    ids = sorted({int(k) for k in rng.integers(0, modulus, size=n)})
    if len(ids) < 2:
        ids = [0, modulus // 2]
    world = World(ids, modulus, digit_bits, leaf_set_size, proximity, seed)
    world.route_some(seed)
    assert_memos_match_scratch(world)
    for kind, arg in steps:
        world.step(kind, arg)
        assert_memos_match_scratch(world)
