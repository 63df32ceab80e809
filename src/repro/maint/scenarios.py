"""Declarative churn scenarios driving the event engine.

The fault-injection primitives live in :mod:`repro.sim.failures`
(batch :func:`~repro.sim.failures.fail_fraction`, Poisson
:class:`~repro.sim.failures.ChurnProcess`); this module packages them —
plus two failure shapes the primitives cannot express — as small
declarative objects a CLI flag or an experiment can instantiate and
hand to one :func:`install_scenarios` call:

* :class:`BatchKill` — the paper's §4.3 model: a fraction of the live
  nodes dies at one instant.
* :class:`PoissonChurn` — continuous exponential departures (and
  optionally arrivals) between ``start`` and ``stop``.
* :class:`FlappingNodes` — a fixed set of nodes cycles dead/alive with
  a given period, the classic repair-engine stress test (every flap
  re-dirties the node's items via the liveness feed).
* :class:`RegionFailure` — every node within a key-space interval dies
  at once, modelling correlated failure of a rack/AS whose node ids
  were named into one region.
* :class:`Partition` — the fabric splits into two sides at ``at`` and
  heals at ``heal_at`` (message-plane fault: nodes stay alive, but
  every cross-cut message drops — see :mod:`repro.sim.linkfaults`).
* :class:`LossyLinks` — a window of probabilistic drop/duplication/
  delay-jitter faults on every link.

All randomness flows through the caller's generator, so a seeded run
replays exactly; all liveness transitions go through the
:class:`~repro.sim.network.Network` so the :class:`repro.maint.repair.
RepairEngine`'s dirty set sees every one of them (and the new
``partition``/``heal`` change kinds reach the anti-entropy engine the
same way).  ``spare`` protects ids that must survive (bootstrap /
querying nodes).

Scenarios are built by name from :data:`BUILTIN_SCENARIOS` with
:func:`make_scenario`; the ``faults`` gate row runs ``batch-kill``
(``meteorograph check faults``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..sim.engine import Simulator
from ..sim.failures import ChurnProcess, fail_fraction
from ..sim.linkfaults import LinkFaultPlane

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.meteorograph import Meteorograph

__all__ = [
    "ScenarioStats",
    "Scenario",
    "BatchKill",
    "PoissonChurn",
    "FlappingNodes",
    "RegionFailure",
    "Partition",
    "LossyLinks",
    "install_scenarios",
    "run_scenarios",
    "make_scenario",
    "BUILTIN_SCENARIOS",
]


@dataclass
class ScenarioStats:
    """What the installed scenarios did to the overlay."""

    failed: int = 0
    recovered: int = 0
    arrivals: int = 0
    splits: int = 0
    heals: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "failed": self.failed,
            "recovered": self.recovered,
            "arrivals": self.arrivals,
            "splits": self.splits,
            "heals": self.heals,
        }


@dataclass
class _Ctx:
    """Everything a scenario's scheduled callbacks close over."""

    system: "Meteorograph"
    sim: Simulator
    rng: np.random.Generator
    stats: ScenarioStats
    spare: Optional[set[int]] = None

    def stabilize(self) -> None:
        self.system.overlay.stabilize()

    def candidates(self) -> list[int]:
        return [
            nid
            for nid in self.system.network.alive_ids()
            if self.spare is None or nid not in self.spare
        ]


class Scenario:
    """Base: a declarative failure shape that installs simulator events."""

    def install(self, ctx: _Ctx) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class BatchKill(Scenario):
    """Kill ``fraction`` of the live nodes at time ``at`` (§4.3)."""

    fraction: float = 0.5
    at: float = 0.0
    stabilize: bool = True

    def install(self, ctx: _Ctx) -> None:
        def fire() -> None:
            failed = fail_fraction(
                ctx.system.network, self.fraction, ctx.rng, spare=ctx.spare
            )
            ctx.stats.failed += len(failed)
            if self.stabilize:
                ctx.stabilize()

        ctx.sim.schedule_at(self.at, fire)


@dataclass(frozen=True)
class PoissonChurn(Scenario):
    """Continuous churn between ``start`` and ``stop`` (None = forever).

    Thin declarative wrapper over
    :class:`~repro.sim.failures.ChurnProcess`; the generator call order
    is exactly the process's own, so a seeded experiment that migrates
    to this scenario reproduces its previous runs.
    """

    depart_rate: float = 1.0
    arrive_rate: float = 0.0
    start: float = 0.0
    stop: Optional[float] = None
    stabilize: bool = True

    def install(self, ctx: _Ctx) -> None:
        def on_depart(_victim: int) -> None:
            ctx.stats.failed += 1
            if self.stabilize:
                ctx.stabilize()

        def on_arrive() -> None:
            ctx.stats.arrivals += 1

        proc = ChurnProcess(
            ctx.sim,
            ctx.system.network,
            ctx.rng,
            depart_rate=self.depart_rate,
            arrive_rate=self.arrive_rate,
            on_depart=on_depart,
            on_arrive=on_arrive,
        )
        if self.start <= ctx.sim.now:
            proc.start()
        else:
            ctx.sim.schedule_at(self.start, proc.start)
        if self.stop is not None:
            ctx.sim.schedule_at(self.stop, proc.stop)


@dataclass(frozen=True)
class FlappingNodes(Scenario):
    """``count`` nodes cycle dead → alive with period ``period``.

    Node *i*'s first failure lands at ``start + period · (i+1)/count``
    (staggered, so the flaps interleave rather than pulse together);
    each stays down for ``down_for`` (default: half the period), then
    recovers and the cycle repeats until ``stop`` (None = forever).
    The victims are drawn once, at install time, from the caller's rng.
    """

    count: int = 4
    period: float = 10.0
    down_for: Optional[float] = None
    start: float = 0.0
    stop: Optional[float] = None
    stabilize: bool = True

    def install(self, ctx: _Ctx) -> None:
        down_for = self.period / 2.0 if self.down_for is None else self.down_for
        if not 0.0 < down_for < self.period:
            raise ValueError(
                f"down_for must be in (0, period), got {down_for}/{self.period}"
            )
        candidates = ctx.candidates()
        n = min(self.count, len(candidates))
        if n == 0:
            return
        idx = ctx.rng.choice(len(candidates), size=n, replace=False)
        chosen = [candidates[int(i)] for i in idx]
        network = ctx.system.network

        def flap(nid: int, first_down: float) -> None:
            def down() -> None:
                if self.stop is not None and ctx.sim.now >= self.stop:
                    return
                if network.fail_node(nid):
                    ctx.stats.failed += 1
                    if self.stabilize:
                        ctx.stabilize()
                ctx.sim.schedule(down_for, up)

            def up() -> None:
                if network.recover_node(nid):
                    ctx.stats.recovered += 1
                    if self.stabilize:
                        ctx.stabilize()
                if self.stop is None or ctx.sim.now < self.stop:
                    ctx.sim.schedule(self.period - down_for, down)

            ctx.sim.schedule_at(first_down, down)

        for i, nid in enumerate(chosen):
            flap(nid, self.start + self.period * (i + 1) / n)


@dataclass(frozen=True)
class RegionFailure(Scenario):
    """Correlated failure: every node in one key interval dies at ``at``.

    The interval spans ``span`` of the key space (ring distance),
    centred on ``center`` — or on a key drawn from the rng when None.
    Models co-located nodes (one rack, one AS) whose overlay ids were
    named into the same region going down together, the §3.6 replica
    scheme's worst case: numerically-close replica holders share fate.
    """

    span: float = 0.1
    center: Optional[int] = None
    at: float = 0.0
    stabilize: bool = True

    def install(self, ctx: _Ctx) -> None:
        if not 0.0 < self.span <= 1.0:
            raise ValueError(f"span must be in (0, 1], got {self.span}")

        def fire() -> None:
            m = ctx.system.space.modulus
            center = (
                int(ctx.rng.integers(0, m)) if self.center is None else self.center
            )
            half = self.span * m / 2.0
            victims = []
            for nid in ctx.candidates():
                d = abs(nid - center) % m
                if min(d, m - d) <= half:
                    victims.append(nid)
            n = ctx.system.network.fail_nodes(victims)
            ctx.stats.failed += n
            obs = ctx.system.network.obs
            if obs.enabled:
                obs.metrics.counter("failures.region_failed", n)
                obs.tracer.event(
                    "fail", count=n, region=center, span=round(self.span, 4)
                )
            if self.stabilize:
                ctx.stabilize()

        ctx.sim.schedule_at(self.at, fire)


def _ensure_plane(ctx: _Ctx) -> LinkFaultPlane:
    """The system's attached fault plane, auto-attaching a quiet one.

    The auto-attached plane's seed is drawn from the caller's rng, so a
    seeded scenario run injects a reproducible fault schedule; scenarios
    that found a plane already attached leave its seed alone.
    """
    network = ctx.system.network
    plane = network.link_faults
    if plane is None:
        plane = network.attach_link_faults(
            LinkFaultPlane(seed=int(ctx.rng.integers(0, 1 << 63)))
        )
    return plane


@dataclass(frozen=True)
class Partition(Scenario):
    """Split the fabric at ``at``; heal it at ``heal_at`` (None = never).

    ``fraction`` of the candidate nodes (drawn once, at install time,
    from the caller's rng, in sorted-candidate order so the side is
    seed-deterministic) form one side of the bipartition; every message
    crossing the cut is dropped while the split holds.  Nodes stay
    alive — this is a *message-plane* fault — so holder state diverges
    during the split and the ``heal`` notification hands the divergence
    to the anti-entropy engine.
    """

    fraction: float = 0.5
    at: float = 0.0
    heal_at: Optional[float] = None
    stabilize: bool = False

    def install(self, ctx: _Ctx) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError(
                f"heal_at must follow at, got {self.heal_at} <= {self.at}"
            )
        _ensure_plane(ctx)  # attach before events fire, seed order fixed
        # Draw the side at install time (sorted candidates → the choice
        # depends only on the seed and membership, not dict iteration).
        candidates = sorted(ctx.candidates())
        n = max(1, int(round(self.fraction * len(candidates))))
        n = min(n, len(candidates) - 1)
        if n < 1:
            return
        idx = ctx.rng.choice(len(candidates), size=n, replace=False)
        side = sorted(candidates[int(i)] for i in idx)
        network = ctx.system.network

        def split() -> None:
            network.partition_nodes(side)
            ctx.stats.splits += 1
            obs = network.obs
            if obs.enabled:
                obs.tracer.event("partition", side=len(side))
            if self.stabilize:
                ctx.stabilize()

        def heal() -> None:
            healed = network.heal_partition()
            if healed:
                ctx.stats.heals += 1
                obs = network.obs
                if obs.enabled:
                    obs.tracer.event("heal", side=healed)

        ctx.sim.schedule_at(self.at, split)
        if self.heal_at is not None:
            ctx.sim.schedule_at(self.heal_at, heal)


@dataclass(frozen=True)
class LossyLinks(Scenario):
    """Probabilistic link faults over a window ``[start, stop)``.

    Sets the attached plane's drop/duplication/delay parameters at
    ``start`` and resets them to zero at ``stop`` (None = the faults
    persist).  Composes with :class:`Partition` on the same plane — the
    cut and the loss draws are independent decisions.
    """

    drop: float = 0.05
    dup: float = 0.0
    jitter: float = 0.0
    start: float = 0.0
    stop: Optional[float] = None

    def install(self, ctx: _Ctx) -> None:
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"stop must follow start, got {self.stop} <= {self.start}"
            )
        plane = _ensure_plane(ctx)
        # Validate eagerly: a bad probability should fail at install
        # time, not mid-run inside a simulator callback.
        LinkFaultPlane(drop_prob=self.drop, dup_prob=self.dup,
                       delay_jitter=self.jitter)

        def begin() -> None:
            plane.set_loss(self.drop, self.dup, self.jitter)

        def end() -> None:
            plane.set_loss(0.0, 0.0, 0.0)

        ctx.sim.schedule_at(self.start, begin)
        if self.stop is not None:
            ctx.sim.schedule_at(self.stop, end)


# -- driving ----------------------------------------------------------------


def install_scenarios(
    system: "Meteorograph",
    scenarios: Sequence[Scenario],
    rng: np.random.Generator,
    *,
    spare: Optional[set[int]] = None,
) -> ScenarioStats:
    """Install every scenario's events on the system's simulator.

    Returns the (live-updating) :class:`ScenarioStats` the scenarios
    share.  The caller owns the clock: schedule measurement probes as
    needed, then ``sim.run(until=horizon)``.
    """
    sim = system.network.simulator
    if sim is None:
        raise RuntimeError("scenarios need a system built with a simulator")
    stats = ScenarioStats()
    ctx = _Ctx(system=system, sim=sim, rng=rng, stats=stats, spare=spare)
    for scenario in scenarios:
        scenario.install(ctx)
    return stats


def run_scenarios(
    system: "Meteorograph",
    scenarios: Sequence[Scenario],
    rng: np.random.Generator,
    *,
    horizon: float,
    spare: Optional[set[int]] = None,
) -> ScenarioStats:
    """Install and run to ``horizon`` in one step (CLI / smoke-test path)."""
    stats = install_scenarios(system, scenarios, rng, spare=spare)
    system.network.simulator.run(until=horizon)
    return stats


#: Scenario constructors, keyed by the name :func:`make_scenario` takes.
BUILTIN_SCENARIOS: dict[str, type[Scenario]] = {
    "batch-kill": BatchKill,
    "poisson": PoissonChurn,
    "flapping": FlappingNodes,
    "region": RegionFailure,
    "partition": Partition,
    "lossy": LossyLinks,
}


def make_scenario(name: str, **params: object) -> Scenario:
    """Instantiate a builtin scenario by name (the ``faults`` gate row's hook)."""
    try:
        cls = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return cls(**params)  # type: ignore[arg-type]
