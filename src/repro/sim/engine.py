"""Discrete-event simulation kernel.

A deliberately small, deterministic event engine: a priority queue of
``(time, seq, callback)`` entries.  The sequence number makes same-time
events fire in scheduling order, which keeps every run bit-for-bit
reproducible — a property the experiment harness relies on.

The routing experiments in this repo are *count-based* (hops and
messages, like the paper's evaluation) and mostly execute synchronously;
the engine exists for the time-based machinery: replica maintenance
(§3.6), churn injection, and periodic republishing.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.profile import SimProfiler

__all__ = ["Simulator", "ScheduledEvent", "PeriodicTask"]


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class ScheduledEvent:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    def cancel(self) -> None:
        """Cancel the event.  Idempotent: cancelling twice is a no-op."""
        self._entry.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_fired = 0
        #: Optional :class:`repro.obs.SimProfiler`; when set, every fired
        #: event is timed and the queue depth sampled.  Checked with a
        #: plain ``is None`` so unprofiled runs pay nothing.
        self.profiler: Optional["SimProfiler"] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        entry = _Entry(self._now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, entry)
        return ScheduledEvent(entry)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at an absolute time (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        entry = _Entry(time, next(self._seq), callback)
        heapq.heappush(self._queue, entry)
        return ScheduledEvent(entry)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_after: Optional[float] = None,
    ) -> "PeriodicTask":
        """Schedule ``callback`` every ``interval`` units until stopped."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        task = PeriodicTask(self, interval, callback)
        task._arm(interval if start_after is None else start_after)
        return task

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            self._now = entry.time
            self._events_fired += 1
            if self.profiler is None:
                entry.callback()
            else:
                self.profiler.run(self, entry.callback)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or event budget spent.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire,
        and the clock is advanced to ``until`` even if the queue drains
        earlier, so periodic processes compose predictably.
        """
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                return
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                break
            self.step()
            fired += 1
        if until is not None and until > self._now:
            self._now = until


class PeriodicTask:
    """A repeating callback managed by :meth:`Simulator.schedule_every`."""

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._handle: Optional[ScheduledEvent] = None
        self._stopped = False
        self.fire_count = 0

    def _arm(self, delay: float) -> None:
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        self._callback()
        if not self._stopped:
            self._arm(self.interval)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the task; pending firing is cancelled.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
