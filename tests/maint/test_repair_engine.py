"""Incremental repair engine: placement equivalence with the full scan.

The load-bearing property is that on any run whose liveness transitions
all flow through the :class:`~repro.sim.network.Network`, a
:class:`~repro.maint.RepairEngine` tick places copies *identically* to
:meth:`~repro.core.replication.ReplicationManager.repair` — the engine
is a pure cost optimisation, never a behaviour change.  Verified here on
twin systems under batch kills, repeated waves, and a seeded flapping
scenario driven by the event engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maint import FlappingNodes, RepairEngine, install_scenarios
from repro.sim.failures import fail_fraction


def make_twins(build_replicated, trace):
    kwargs = dict(trace=trace, n_nodes=120, factor=3, seed=31)
    full = build_replicated(**kwargs)
    incr = build_replicated(**kwargs)
    engine = RepairEngine(incr).attach()
    return full, incr, engine


class TestEquivalence:
    def test_batch_kill_placements_identical(
        self, build_replicated, holders_snapshot, tiny_trace
    ):
        full, incr, engine = make_twins(build_replicated, tiny_trace)
        fail_fraction(full.network, 0.3, np.random.default_rng(7))
        fail_fraction(incr.network, 0.3, np.random.default_rng(7))
        placed_full = full.replication.repair()
        placed_incr = engine.tick()
        assert placed_incr == placed_full
        assert placed_incr > 0
        assert holders_snapshot(incr) == holders_snapshot(full)

    def test_repeated_waves_stay_identical(
        self, build_replicated, holders_snapshot, tiny_trace
    ):
        full, incr, engine = make_twins(build_replicated, tiny_trace)
        for wave in range(3):
            rng_seed = 100 + wave
            fail_fraction(full.network, 0.1, np.random.default_rng(rng_seed))
            fail_fraction(incr.network, 0.1, np.random.default_rng(rng_seed))
            assert engine.tick() == full.replication.repair()
            assert holders_snapshot(incr) == holders_snapshot(full)

    def test_flapping_scenario_placements_identical(
        self, build_replicated, holders_snapshot, tiny_trace
    ):
        """Seeded flapping driven by the simulator: periodic engine ticks
        on one twin, periodic full scans on the other, same horizon."""
        full, incr, engine = make_twins(build_replicated, tiny_trace)
        for system in (full, incr):
            install_scenarios(
                system,
                [FlappingNodes(count=6, period=10.0, stop=40.0)],
                np.random.default_rng(5),
            )
        full.network.simulator.schedule_every(4.0, full.replication.repair)
        engine.schedule(4.0)
        full.network.simulator.run(until=60.0)
        incr.network.simulator.run(until=60.0)
        assert engine.ticks > 0
        assert holders_snapshot(incr) == holders_snapshot(full)


def some_holder(system) -> tuple[int, set[int]]:
    """A node credited with copies, and the items credited to it."""
    holders = system.replication.holders
    victim = next(iter(next(iter(holders.values()))))
    return victim, {i for i, h in holders.items() if victim in h}


class TestDirtySet:
    @pytest.fixture()
    def engine_system(self, build_replicated, tiny_trace):
        system = build_replicated(trace=tiny_trace, seed=31)
        return system, RepairEngine(system).attach()

    def test_clean_tick_is_a_noop(self, engine_system):
        _, engine = engine_system
        assert engine.dirty_size == 0
        assert engine.tick() == 0

    def test_failure_dirties_only_held_items(self, engine_system):
        system, engine = engine_system
        victim, held = some_holder(system)
        system.network.fail_node(victim)
        assert engine.dirty == held

    def test_recovery_redirties_held_items(self, engine_system):
        system, engine = engine_system
        victim, held = some_holder(system)
        system.network.fail_node(victim)
        engine.tick()
        system.network.recover_node(victim)
        # The recovered node's items resurface for re-examination.
        assert engine.dirty >= held

    def test_removal_uncredits_and_dirties_held_items(self, engine_system):
        """A removed node leaves the ledger at once: no record credits
        it (a rejoin under its id starts empty) and its items are dirty."""
        system, engine = engine_system
        victim, held = some_holder(system)
        system.overlay.remove_node(victim)
        assert engine.dirty == held
        for holders in system.replication.holders.values():
            assert victim not in holders
        assert victim not in system.replication.held

    def test_double_attach_rejected(self, engine_system):
        _, engine = engine_system
        with pytest.raises(RuntimeError):
            engine.attach()

    def test_unreplicated_system_rejected(self, build_system_fn, tiny_trace):
        system = build_system_fn(tiny_trace)
        with pytest.raises(ValueError):
            RepairEngine(system)


class TestMetrics:
    def test_maint_counters_emitted_when_observable(
        self, build_replicated, tiny_trace
    ):
        system = build_replicated(trace=tiny_trace, seed=31, observability=True)
        engine = RepairEngine(system).attach()
        fail_fraction(system.network, 0.3, np.random.default_rng(9))
        placed = engine.tick()
        counters = system.obs.metrics.counters
        assert counters["maint.dirty_marked"] > 0
        assert counters["maint.replicas_placed"] == placed
        assert "maint.repair_tick" in system.obs.metrics.timers
