"""A small discrete-event simulation engine.

The streaming system (helpers, peers, churn, bandwidth switches, learning
rounds) runs on this engine.  It is a classic calendar-queue design:

* events are ``(time, priority, sequence, event)`` tuples in a binary
  heap, where ``event`` holds the callback and its cancellation flag; ties
  break by priority, then FIFO by insertion sequence, so runs are fully
  deterministic.  ``sequence`` is unique, so heap ordering is plain tuple
  comparison and never reaches the event object;
* callbacks receive the :class:`Simulator` and may schedule further events;
* :meth:`Simulator.schedule_periodic` installs recurring events (learning
  rounds, metric sampling) at drift-free absolute times;
* cancellation is lazy (a flag on the heap entry), but the simulator keeps
  a live-event counter so :attr:`Simulator.pending` is O(1), and it
  compacts the heap whenever cancelled entries outnumber live ones — a
  long-running system with heavy churn cannot leak dead events.

The engine knows nothing about streaming — it is reused by the churn and
bandwidth processes and available to downstream users as a substrate.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.telemetry import get_telemetry

EventCallback = Callable[["Simulator"], None]

# Compaction keeps amortized O(log n) scheduling: rebuilds are triggered at
# most once per O(n) cancellations, so their linear cost amortizes away.
_COMPACT_MIN_QUEUE = 16


class _ScheduledEvent:
    """A queued callback with its cancellation state."""

    __slots__ = ("time", "callback", "cancelled", "in_queue")

    def __init__(self, time: float, callback: EventCallback) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.in_queue = True


#: A heap entry: ``(time, priority, sequence, event)``.
_Entry = Tuple[float, int, int, _ScheduledEvent]


class EventHandle:
    """Returned by ``schedule``; allows cancellation."""

    def __init__(
        self, event: _ScheduledEvent, simulator: Optional["Simulator"] = None
    ) -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (lazy deletion from the heap)."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if self._simulator is not None and event.in_queue:
            self._simulator._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[_Entry] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._live = 0       # non-cancelled events currently in the heap
        self._dead = 0       # cancelled entries awaiting lazy removal
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

    @property
    def pending(self) -> int:
        """Number of queued (non-cancelled) events — O(1)."""
        return self._live

    @property
    def queue_size(self) -> int:
        """Heap entries including not-yet-compacted cancelled ones."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Internal bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """A queued event was cancelled: update counters, maybe compact."""
        self._live -= 1
        self._dead += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._dead * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (ordering is preserved
        because entries compare by ``(time, priority, sequence)``)."""
        live = []
        for entry in self._queue:
            if entry[3].cancelled:
                entry[3].in_queue = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._dead = 0

    def _pop(self) -> Optional[_ScheduledEvent]:
        """Pop the next live event, discarding stale cancelled entries."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            event.in_queue = False
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return event
        return None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(
        self, time: float, callback: EventCallback, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        time = float(time)
        event = _ScheduledEvent(time, callback)
        heapq.heappush(
            self._queue, (time, int(priority), next(self._sequence), event)
        )
        self._live += 1
        return EventHandle(event, self)

    def schedule(
        self, delay: float, callback: EventCallback, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` time units (>= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        priority: int = 0,
        first_delay: Optional[float] = None,
    ) -> EventHandle:
        """Schedule ``callback`` every ``period`` units until cancelled.

        The ``k``-th firing lands at the absolute time
        ``first + k * period`` (``first`` being the first firing time), not
        at accumulated ``now + period`` offsets, so long series do not
        drift from float rounding.  The returned handle cancels the *whole
        series*.
        """
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        delay = period if first_delay is None else first_delay
        return _PeriodicSeries(self, self._now + delay, period, callback, priority)

    def clear(self) -> None:
        """Drop every pending event; the clock and counters stay.

        Event callbacks usually point back at whatever owns the
        simulator, so a pending event keeps its owner in a reference
        cycle.  Owners call this when their run is over.
        """
        for entry in self._queue:
            event = entry[3]
            event.in_queue = False
            event.cancelled = True
            event.callback = None
        self._queue = []
        self._live = 0
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the next event; return False if the queue is empty."""
        event = self._pop()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        self._ctr_events.inc()
        t0 = self._ph_dispatch.start()
        event.callback(self)
        self._ph_dispatch.stop(t0)
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> None:
        """Run all events with ``time <= end_time`` then set now = end_time."""
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is before now {self._now}")
        budget = max_events
        while self._queue:
            head = self._queue[0]
            if head[3].cancelled:
                heapq.heappop(self._queue)
                head[3].in_queue = False
                self._dead -= 1
                continue
            if head[0] > end_time:
                break
            if budget is not None:
                if budget <= 0:
                    raise RuntimeError("max_events exhausted before end_time")
                budget -= 1
            self.step()
        self._now = float(end_time)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` is hit)."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                raise RuntimeError("max_events exhausted with events still pending")


class _PeriodicSeries(EventHandle):
    """Handle of a :meth:`Simulator.schedule_periodic` series.

    Its bound ``_fire`` is the callback of the series' pending event, so
    the series and that event refer to each other;
    :meth:`Simulator.clear` detaches the callback of every dropped event,
    which ends the cycle.
    """

    def __init__(
        self,
        sim: Simulator,
        first_time: float,
        period: float,
        callback: EventCallback,
        priority: int,
    ) -> None:
        self._callback = callback
        self._first_time = first_time
        self._period = period
        self._priority = priority
        self._fired = 0
        self._series_cancelled = False
        self._live = sim.schedule_at(first_time, self._fire, priority=priority)

    def _fire(self, sim: Simulator) -> None:
        if self._series_cancelled:
            return
        self._callback(sim)
        if not self._series_cancelled:
            self._fired += 1
            self._live = sim.schedule_at(
                self._first_time + self._fired * self._period,
                self._fire,
                priority=self._priority,
            )

    @property
    def time(self) -> float:
        return self._live.time

    @property
    def cancelled(self) -> bool:
        return self._series_cancelled

    def cancel(self) -> None:
        self._series_cancelled = True
        self._live.cancel()
