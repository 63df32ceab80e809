"""Observability: structured tracing, metrics, and profiling hooks.

The paper's evaluation is expressed in hops and messages
(:mod:`repro.sim.metrics` owns that currency); this package answers the
*operational* questions those counters cannot — where the time goes
inside a publish chain, how deep a neighbor walk ran, which nodes see
the most traffic.  Three pieces:

* :mod:`repro.obs.trace` — a span-tree event bus (route → hop forwards
  → displacement links → walk steps);
* :mod:`repro.obs.registry` — counters / gauges / distributions / wall
  + CPU timers, exportable to JSON and CSV;
* :mod:`repro.obs.profile` — per-event simulator timing and queue-depth
  sampling.

:class:`Observability` bundles a tracer and a registry; ``NULL_OBS`` is
the shared disabled instance every un-instrumented system uses.  The
contract is **zero cost when off**: hot paths check one ``enabled``
attribute before emitting, so an operation calls the null twins the
same number of times however many hops it takes (see
OBSERVABILITY.md, "The zero-cost contract").

Enable per system::

    config = MeteorographConfig(observability=True)
    system = Meteorograph.build(..., config=config)
    print(system.obs.metrics.render_tables())

or pass a pre-built :class:`Observability` to share one bus across
systems: ``MeteorographConfig(observability=Observability())``.
"""

from __future__ import annotations

from .profile import SimProfiler
from .registry import (
    Distribution,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
    TimerStat,
)
from .trace import NULL_TRACER, NullTraceBus, Span, TraceBus, render_trace_tree

__all__ = [
    "Observability",
    "NULL_OBS",
    "TraceBus",
    "NullTraceBus",
    "NULL_TRACER",
    "Span",
    "render_trace_tree",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Distribution",
    "TimerStat",
    "SimProfiler",
]


class Observability:
    """A tracer + metrics registry pair, as wired through the system.

    ``enabled`` is the single flag hot paths consult; it is True when
    either half is live.  The null instance (``NULL_OBS``) is shared —
    never mutate it.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(
        self,
        tracer: TraceBus | NullTraceBus | None = None,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else TraceBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.enabled = bool(self.tracer.enabled or self.metrics.enabled)

    @classmethod
    def disabled(cls) -> "Observability":
        return NULL_OBS


NULL_OBS = Observability(NULL_TRACER, NULL_METRICS)
