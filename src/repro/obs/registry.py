"""Metrics registry: counters, gauges, distributions, and timers.

Generalises :class:`repro.sim.metrics.MetricSink` (which stays the
message-accounting authority — the paper's evaluation currency) to the
operational side: how many routing-table rows were built, how long the
Eq. 5 angle kernel ran, what the simulator queue depth looked like.

Four instrument families:

* **counter** — monotone event count (``routing.rows_built``);
* **gauge** — last-written value (``build.nodes``);
* **distribution** — streaming count/min/max/mean plus a bounded
  reservoir for quantiles (``sim.queue_depth``);
* **timer** — a distribution pair over wall-clock *and* CPU seconds
  (``kernel.angles``), driven by a context manager.

Everything exports to JSON/CSV (the same formats ``results/`` uses) and
renders as plain-text tables for ``meteorograph stats``.  The
:class:`NullMetricsRegistry` twin makes the disabled path one attribute
load per call site.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

__all__ = [
    "Distribution",
    "TimerStat",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]

#: Reservoir cap per distribution: enough for stable p95/p99 at demo
#: scale without unbounded growth on long runs (systematic thinning
#: keeps the sample deterministic — no RNG in the observability path).
_RESERVOIR_CAP = 4096


class Distribution:
    """Streaming summary of a sample: count, min, max, mean, quantiles.

    Keeps exact count/total/min/max and a bounded reservoir for
    percentiles.  When the reservoir overflows it is thinned by keeping
    every other sample and the acceptance stride doubles — deterministic
    and order-stable, unlike random reservoir sampling.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride", "_phase")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._phase = 0

    def record(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(v)
            if len(self._samples) >= _RESERVOIR_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the reservoir (exact until it thins)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        if not self._samples:
            raise ValueError("empty distribution")
        return float(np.quantile(np.asarray(self._samples), q))

    def as_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        out = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        if self._samples:
            out["p50"] = self.quantile(0.50)
            out["p95"] = self.quantile(0.95)
        return out


class TimerStat:
    """Wall-clock and CPU-time distributions for one named code region."""

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        self.wall = Distribution()
        self.cpu = Distribution()

    def record(self, wall_s: float, cpu_s: float) -> None:
        self.wall.record(wall_s)
        self.cpu.record(cpu_s)

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {"wall_s": self.wall.as_dict(), "cpu_s": self.cpu.as_dict()}


class _Timing:
    """Context manager recording one timed region into a :class:`TimerStat`."""

    __slots__ = ("_stat", "_w0", "_c0")

    def __init__(self, stat: TimerStat) -> None:
        self._stat = stat

    def __enter__(self) -> "_Timing":
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> bool:
        self._stat.record(
            time.perf_counter() - self._w0, time.process_time() - self._c0
        )
        return False


class MetricsRegistry:
    """Named instruments, lazily created on first use."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.distributions: dict[str, Distribution] = {}
        self.timers: dict[str, TimerStat] = {}
        #: Per-key tallies under one name, e.g. per-node inbox depth:
        #: ``bucket("net.node_inbox", dst)``.
        self.buckets: dict[str, Counter] = {}

    # -- instruments -------------------------------------------------------

    def counter(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        dist = self.distributions.get(name)
        if dist is None:
            dist = self.distributions[name] = Distribution()
        dist.record(value)

    def bucket(self, name: str, key: object, n: int = 1) -> None:
        b = self.buckets.get(name)
        if b is None:
            b = self.buckets[name] = Counter()
        b[key] += n

    def timer(self, name: str) -> _Timing:
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        return _Timing(stat)

    def record_timing(self, name: str, wall_s: float, cpu_s: float = 0.0) -> None:
        """Direct entry point for callers that timed the region themselves."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.record(wall_s, cpu_s)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "distributions": {
                k: d.as_dict() for k, d in sorted(self.distributions.items())
            },
            "timers": {k: t.as_dict() for k, t in sorted(self.timers.items())},
            "buckets": {
                k: {str(key): n for key, n in b.most_common(16)}
                for k, b in sorted(self.buckets.items())
            },
        }

    def to_json(self, path: str | Path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return p

    def to_csv(self, path: str | Path) -> Path:
        """Flat (instrument, name, field, value) rows — joins with results/ CSVs."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["instrument", "name", "field", "value"])
            for name, v in sorted(self.counters.items()):
                w.writerow(["counter", name, "count", v])
            for name, v in sorted(self.gauges.items()):
                w.writerow(["gauge", name, "value", v])
            for name, d in sorted(self.distributions.items()):
                for fld, v in d.as_dict().items():
                    w.writerow(["distribution", name, fld, v])
            for name, t in sorted(self.timers.items()):
                for side, dd in t.as_dict().items():
                    for fld, v in dd.items():
                        w.writerow(["timer", name, f"{side}.{fld}", v])
        return p

    # -- rendering ---------------------------------------------------------

    def render_tables(self, *, top_buckets: int = 5) -> str:
        """Plain-text tables for ``meteorograph stats``."""
        lines: list[str] = []
        if self.counters:
            lines.append("== counters ==")
            width = max(len(k) for k in self.counters)
            for k, v in sorted(self.counters.items()):
                lines.append(f"{k.ljust(width)}  {v}")
        if self.gauges:
            lines.append("")
            lines.append("== gauges ==")
            width = max(len(k) for k in self.gauges)
            for k, v in sorted(self.gauges.items()):
                lines.append(f"{k.ljust(width)}  {v:g}")
        if self.distributions:
            lines.append("")
            lines.append("== distributions ==")
            width = max(len(k) for k in self.distributions)
            header = f"{'name'.ljust(width)}  {'count':>8}  {'mean':>10}  {'min':>10}  {'max':>10}"
            lines.append(header)
            lines.append("-" * len(header))
            for k, d in sorted(self.distributions.items()):
                lines.append(
                    f"{k.ljust(width)}  {d.count:>8}  {d.mean:>10.3f}  {d.min:>10.3f}  {d.max:>10.3f}"
                )
        if self.timers:
            lines.append("")
            lines.append("== timers (wall / cpu, ms) ==")
            width = max(len(k) for k in self.timers)
            header = (
                f"{'name'.ljust(width)}  {'calls':>7}  {'wall mean':>10}  "
                f"{'wall total':>10}  {'cpu mean':>10}"
            )
            lines.append(header)
            lines.append("-" * len(header))
            for k, t in sorted(self.timers.items()):
                lines.append(
                    f"{k.ljust(width)}  {t.wall.count:>7}  "
                    f"{t.wall.mean * 1e3:>10.3f}  {t.wall.total * 1e3:>10.3f}  "
                    f"{t.cpu.mean * 1e3:>10.3f}"
                )
        for name, b in sorted(self.buckets.items()):
            lines.append("")
            lines.append(f"== bucket: {name} (top {top_buckets}) ==")
            for key, n in b.most_common(top_buckets):
                lines.append(f"{key}  {n}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


class _NullTiming:
    __slots__ = ()

    def __enter__(self) -> "_NullTiming":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMING = _NullTiming()


class NullMetricsRegistry:
    """Disabled registry: no-op instruments, ``enabled`` is False."""

    enabled = False
    counters: dict = {}
    gauges: dict = {}
    distributions: dict = {}
    timers: dict = {}
    buckets: dict = {}

    def counter(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def bucket(self, name: str, key: object, n: int = 1) -> None:
        pass

    def timer(self, name: str) -> _NullTiming:
        return _NULL_TIMING

    def record_timing(self, name: str, wall_s: float, cpu_s: float = 0.0) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def render_tables(self, *, top_buckets: int = 5) -> str:
        return "(observability disabled)"


NULL_METRICS = NullMetricsRegistry()
