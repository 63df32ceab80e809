"""Unit tests for the bootstrap join protocol."""

import numpy as np
import pytest

from repro.overlay.idspace import KeySpace
from repro.overlay.membership import Bootstrap
from repro.overlay.tornado import TornadoOverlay
from repro.sim.network import Network


def make_overlay(modulus=1 << 16):
    return TornadoOverlay(KeySpace(modulus), Network())


def uniform_namer(space):
    def name(rng):
        return int(rng.integers(0, space.modulus))

    return name


class TestBootstrap:
    def test_seed_creates_first_node(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        node = boot.seed(123)
        assert ov.size == 1
        assert node.node_id == 123

    def test_double_seed_rejected(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        boot.seed(1)
        with pytest.raises(RuntimeError):
            boot.seed(2)

    def test_join_before_seed_rejected(self):
        boot = Bootstrap(make_overlay())
        with pytest.raises(RuntimeError):
            boot.join(uniform_namer(KeySpace(16)), np.random.default_rng(0))

    def test_join_adds_node_and_charges(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        boot.seed(1)
        rng = np.random.default_rng(7)
        res = boot.join(uniform_namer(ov.space), rng)
        assert ov.size == 2
        assert res.join_messages >= 2  # request + reply at minimum
        assert ov.network.sink.count("join") >= 2

    def test_join_retries_on_collision(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        boot.seed(5)
        calls = iter([5, 5, 9])  # collide with the seed twice

        def namer(rng):
            return next(calls)

        res = boot.join(namer, np.random.default_rng(0))
        assert res.node.node_id == 9
        assert res.retries == 2

    def test_join_gives_up_after_max_retries(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        boot.seed(5)
        with pytest.raises(RuntimeError):
            boot.join(lambda rng: 5, np.random.default_rng(0), max_retries=3)

    def test_naming_info_carried(self):
        boot = Bootstrap(make_overlay(), naming_info={"knees": [1, 2]}, sample_set="S")
        assert boot.naming_info == {"knees": [1, 2]}
        assert boot.sample_set == "S"

    def test_many_joins_build_routable_overlay(self):
        ov = make_overlay()
        boot = Bootstrap(ov)
        boot.seed(100)
        rng = np.random.default_rng(11)
        for _ in range(60):
            boot.join(uniform_namer(ov.space), rng)
        assert ov.size == 61
        key = 777
        res = ov.route(100, key)
        assert res.home == ov.home(key)
