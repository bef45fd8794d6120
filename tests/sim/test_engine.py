"""Tests for the discrete-event engine."""

import gc
import random
import weakref

import pytest

from repro.sim.engine import Simulator
from repro.telemetry import session


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda s: fired.append("c"))
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.schedule(2.0, lambda s: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append("first"))
        sim.schedule_at(1.0, lambda s: fired.append("second"))
        sim.schedule(1.0, lambda s: fired.append("third"))
        sim.run_until(10.0)
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda s: seen.append(s.now))
        sim.run_until(3.0)
        assert seen == [2.5]
        assert sim.now == 3.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run_until(10.0)
        seen = []
        sim.schedule_at(12.0, lambda s: seen.append(s.now))
        sim.schedule(1.0, lambda s: seen.append(s.now))
        sim.run_until(20.0)
        assert seen == [11.0, 12.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda s: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda s: None)

    def test_now_is_a_valid_time(self):
        """The checks refuse times before ``now``, not ``now`` itself:
        a zero delay, ``schedule_at(now)`` and ``run_until(now)`` pass."""
        sim = Simulator()
        sim.run_until(5.0)
        fired = []
        sim.schedule(0.0, lambda s: fired.append(("delay", s.now)))
        sim.schedule_at(5.0, lambda s: fired.append(("at", s.now)))
        sim.run_until(5.0)
        assert fired == [("delay", 5.0), ("at", 5.0)]
        assert sim.now == 5.0 and sim.events_processed == 2

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain(s):
            fired.append(s.now)
            if len(fired) < 3:
                s.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]


class TestRejectsNaN:
    """NaN compares false with everything, so each check is written to
    fail on it: a NaN time in the heap would fire first and leave the
    clock at NaN."""

    def test_schedule(self):
        sim = Simulator()
        fired = []
        with pytest.raises(ValueError, match="delay"):
            sim.schedule(float("nan"), lambda s: fired.append("nan"))
        sim.schedule(5.0, lambda s: fired.append(5.0))
        sim.schedule(1.0, lambda s: fired.append(1.0))
        sim.run_until(2.0)
        assert fired == [1.0]
        assert sim.now == 2.0

    def test_schedule_at(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="cannot schedule"):
            sim.schedule_at(float("nan"), lambda s: None)

    def test_schedule_periodic(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="period"):
            sim.schedule_periodic(float("nan"), lambda s: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(1.0))
        with pytest.raises(ValueError, match="end_time"):
            sim.run_until(float("nan"))
        assert fired == [] and sim.now == 0.0


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(1))
        sim.schedule(5.0, lambda s: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda s: fired.append(3))
        sim.run_until(3.0)
        assert fired == [3]

    def test_zero_delay_from_a_callback_fires_in_the_same_run(self):
        sim = Simulator()
        fired = []

        def at_boundary(s):
            fired.append("boundary")
            s.schedule(0.0, lambda s: fired.append(("now", s.now)))
            s.schedule(0.5, lambda s: fired.append(("later", s.now)))

        sim.schedule(2.0, at_boundary)
        sim.run_until(2.0)
        assert fired == ["boundary", ("now", 2.0)]
        sim.run_until(3.0)
        assert fired[-1] == ("later", 2.5)

    def test_rejects_backwards(self):
        sim = Simulator()
        sim.run_until(4.0)
        with pytest.raises(ValueError):
            sim.run_until(2.0)


class TestPeriodic:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda s: times.append(s.now))
        sim.run_until(4.5)
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_equal_periods_fire_in_scheduling_order(self):
        """A series reschedules itself when it fires, so at each tick the
        series keep the order they were started in; a one-shot scheduled
        before either started fires first at its tick, its sequence number
        being older than their reschedules'."""
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda s: fired.append(("x", s.now)))
        sim.schedule_periodic(1.0, lambda s: fired.append(("a", s.now)))
        sim.schedule_periodic(1.0, lambda s: fired.append(("b", s.now)))
        sim.run_until(3.0)
        assert fired == [
            ("a", 1.0), ("b", 1.0),
            ("x", 2.0), ("a", 2.0), ("b", 2.0),
            ("a", 3.0), ("b", 3.0),
        ]

    def test_rejects_nonpositive_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_periodic(0.0, lambda s: None)


class _Unordered:
    """A callback that fails the test if the heap ever compares it."""

    __hash__ = object.__hash__

    def __init__(self, fired, tag):
        self.fired = fired
        self.tag = tag

    def __call__(self, sim):
        self.fired.append(self.tag)

    def _refuse(self, other):
        raise AssertionError("the event heap compared two callbacks")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse


class TestTieOrder:
    """Heap entries are ``(time, sequence, callback)`` tuples: the unique
    sequence settles every tie, so callbacks are never compared."""

    COUNT = 10_000

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        for i in range(self.COUNT):
            sim.schedule_at(1.0, _Unordered(fired, i))
        sim.run_until(1.0)
        assert fired == list(range(self.COUNT))

    def test_random_times_fire_by_time_then_insertion(self):
        """Property: over a heap with many ties, events added by
        callbacks and a run cut into windows, events fire sorted by
        ``(time, insertion index)``, each with ``now`` at its time."""
        rng = random.Random(2024)
        sim = Simulator()
        scheduled = []  # (time, insertion index) of every event
        fired = []

        def add(s, time):
            key = (time, len(scheduled))
            scheduled.append(key)
            s.schedule_at(time, lambda s: on_fire(s, key))

        def on_fire(s, key):
            assert s.now == key[0]
            fired.append(key)
            if rng.random() < 0.2:
                add(s, s.now + rng.randrange(4) * 0.5)

        for _ in range(2000):
            add(sim, rng.randrange(40) * 0.5)
        for end in (5.0, 5.0, 12.25, 1000.0):
            sim.run_until(end)
        assert len(scheduled) > 2000
        assert fired == sorted(scheduled)


class TestPeriodicDrift:
    def test_firings_land_on_absolute_grid(self):
        """Successive firings must sit at start + k*period exactly, not at
        accumulated now+period offsets (which drift: 0.1 is not exactly
        representable)."""
        sim = Simulator()
        times = []
        period = 0.1
        sim.schedule_periodic(period, lambda s: times.append(s.now))
        sim.run_until(100.0)
        assert len(times) >= 999
        expected = [period + k * period for k in range(len(times))]
        assert times == expected  # bit-for-bit, no accumulation error

    def test_drifting_would_fail_above_assertion(self):
        # Sanity check of the test itself: the accumulated form really
        # does diverge from the absolute grid within 1000 firings.
        acc = 0.0
        for _ in range(1000):
            acc += 0.1
        assert acc != 1000 * 0.1

    def test_grid_starts_one_period_after_now(self):
        sim = Simulator()
        sim.run_until(0.5)
        times = []
        sim.schedule_periodic(2.0, lambda s: times.append(s.now))
        sim.run_until(8.0)
        assert times == [2.5, 4.5, 6.5]


class TestClear:
    def test_drops_pending_events_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append("once"))
        sim.schedule_periodic(1.0, lambda s: fired.append(s.now))
        sim.run_until(1.5)
        assert fired == ["once", 1.0]
        sim.clear()
        assert sim.now == 1.5 and sim.events_processed == 2
        sim.run_until(10.0)
        assert fired == ["once", 1.0]
        assert sim.events_processed == 2

    def test_dropped_events_release_their_callbacks(self):
        class Owner:
            def tick(self, sim):
                pass

        sim = Simulator()
        owner = Owner()
        sim.schedule(1.0, owner.tick)
        sim.schedule_periodic(1.0, owner.tick)
        ref = weakref.ref(owner)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del owner
            assert ref() is not None  # held by the pending events
            sim.clear()
            assert ref() is None  # freed by reference counting alone
        finally:
            if enabled:
                gc.enable()

    def test_periodic_series_is_not_a_cycle(self):
        """A series refers to its callback, not to itself: dropping the
        simulator frees a running series without the collector."""

        class Owner:
            def tick(self, sim):
                pass

        sim = Simulator()
        owner = Owner()
        sim.schedule_periodic(1.0, owner.tick)
        sim.run_until(2.5)
        ref = weakref.ref(owner)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del owner, sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_simulator_stays_usable(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.clear()
        times = []
        sim.schedule(2.0, lambda s: times.append(s.now))
        sim.run_until(10.0)
        assert times == [2.0] and sim.events_processed == 1


class TestCounters:
    def test_events_processed(self):
        sim = Simulator()
        for d in (1.0, 2.0):
            sim.schedule(d, lambda s: None)
        sim.run_until(10.0)
        assert sim.events_processed == 2

    def test_telemetry_counts_every_dispatch(self):
        """The ``sim.events`` counter and the ``sim.dispatch`` phase see
        each fired callback once, periodic firings and events scheduled
        by callbacks included; events dropped by ``clear`` never count."""
        with session() as tel:
            sim = Simulator()
            sim.schedule_periodic(1.0, lambda s: None)
            sim.schedule(0.5, lambda s: s.schedule(0.25, lambda s: None))
            sim.run_until(3.5)
            sim.schedule(1.0, lambda s: None)
            sim.clear()
            sim.run_until(10.0)
            assert sim.events_processed == 5
            assert tel.counter("sim.events").value == 5
            assert tel.phase("sim.dispatch").count == 5
