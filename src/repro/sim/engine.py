"""A small discrete-event simulation engine.

The streaming system (learning rounds, churn, viewer switches,
popularity drift) runs on this engine:

* events are ``(time, sequence, callback)`` tuples in a binary heap;
  ties in time fire in insertion order.  ``sequence`` is unique, so heap
  ordering is plain tuple comparison and never reaches the callback;
* callbacks receive the :class:`Simulator` and may schedule further events;
* :meth:`Simulator.schedule_periodic` installs a recurring event at
  drift-free absolute times.

An event cannot be cancelled.  A callback whose target may be gone by the
time it fires checks for that itself: a churn leave looks its peer up by
peer id or uid, neither of which is ever reused.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from repro.telemetry import get_telemetry

EventCallback = Callable[["Simulator"], None]


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventCallback]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        tel = get_telemetry()
        self._ph_dispatch = tel.phase("sim.dispatch")
        self._ctr_events = tel.counter("sim.events")

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    def schedule_at(self, time: float, callback: EventCallback) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if not time >= self._now:
            raise ValueError(f"cannot schedule at {time}: now is {self._now}")
        heapq.heappush(self._queue, (float(time), next(self._sequence), callback))

    def schedule(self, delay: float, callback: EventCallback) -> None:
        """Schedule ``callback`` after ``delay`` time units (>= 0)."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule_at(self._now + delay, callback)

    def schedule_periodic(self, period: float, callback: EventCallback) -> None:
        """Schedule ``callback`` every ``period`` units, starting one period on.

        The ``k``-th firing lands at the absolute time
        ``first + k * period`` (``first`` being the first firing time), not
        at accumulated ``now + period`` offsets, so long series do not
        drift from float rounding.
        """
        if not period > 0:
            raise ValueError(f"period must be > 0, got {period}")
        first = self._now + period
        self.schedule_at(first, _Periodic(callback, first, period))

    def clear(self) -> None:
        """Drop every pending event; the clock and counters stay.

        Event callbacks usually point back at whatever owns the
        simulator, so a pending event keeps its owner in a reference
        cycle.  Owners call this when their run is over.
        """
        self._queue.clear()

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time`` then set now = end_time."""
        if not end_time >= self._now:
            raise ValueError(f"end_time {end_time} is before now {self._now}")
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            self._now, _, callback = heapq.heappop(queue)
            self._events_processed += 1
            self._ctr_events.inc()
            t0 = self._ph_dispatch.start()
            callback(self)
            self._ph_dispatch.stop(t0)
        self._now = float(end_time)


class _Periodic:
    """The callback of a :meth:`Simulator.schedule_periodic` series.

    Only its pending event refers to it, so dropping that event frees
    the series by reference counting alone.
    """

    __slots__ = ("callback", "first", "period", "fired")

    def __init__(self, callback: EventCallback, first: float, period: float) -> None:
        self.callback = callback
        self.first = first
        self.period = period
        self.fired = 0

    def __call__(self, sim: Simulator) -> None:
        self.callback(sim)
        self.fired += 1
        sim.schedule_at(self.first + self.fired * self.period, self)
