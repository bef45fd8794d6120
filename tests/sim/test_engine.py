"""Tests for the discrete-event engine."""

import gc
import weakref

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda s: fired.append("c"))
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.schedule(2.0, lambda s: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_priority_then_fifo(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append("low"), priority=5)
        sim.schedule(1.0, lambda s: fired.append("first"), priority=0)
        sim.schedule(1.0, lambda s: fired.append("second"), priority=0)
        sim.run()
        assert fired == ["first", "second", "low"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(12.0, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [12.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda s: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda s: None)

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain(s):
            fired.append(s.now)
            if len(fired) < 3:
                s.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda s: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_counts_exclude_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        assert sim.pending == 2
        handle.cancel()
        assert sim.pending == 1


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

    def test_rejects_backwards(self):
        sim = Simulator(start_time=4.0)
        with pytest.raises(ValueError):
            sim.run_until(2.0)

    def test_max_events_guard(self):
        sim = Simulator()

        def recur(s):
            s.schedule(0.1, recur)

        sim.schedule(0.1, recur)
        with pytest.raises(RuntimeError):
            sim.run_until(100.0, max_events=10)


class TestPeriodic:
    def test_fires_every_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda s: times.append(s.now))
        sim.run_until(4.5)
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_first_delay_override(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(2.0, lambda s: times.append(s.now), first_delay=0.5)
        sim.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_cancel_stops_series(self):
        sim = Simulator()
        times = []
        handle = sim.schedule_periodic(1.0, lambda s: times.append(s.now))
        sim.run_until(2.5)
        handle.cancel()
        sim.run_until(10.0)
        assert times == [1.0, 2.0]
        assert handle.cancelled

    def test_rejects_nonpositive_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_periodic(0.0, lambda s: None)


class TestHeapHygiene:
    def test_pending_is_tracked_without_scanning(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda s: None) for i in range(10)]
        assert sim.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        sim.run_until(1.5)
        handle.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_mass_cancellation_compacts_heap(self):
        """Cancelled entries must not accumulate: once they exceed half the
        queue the heap is rebuilt without them."""
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda s: None) for i in range(10)]
        doomed = [sim.schedule(float(i + 1), lambda s: None) for i in range(100)]
        assert sim.queue_size == 110
        for h in doomed:
            h.cancel()
        assert sim.pending == 10
        assert sim.queue_size < 30  # lazily-cancelled bulk was dropped
        fired = []
        sim.schedule_at(2000.0, lambda s: fired.append(s.now))
        sim.run()
        assert fired == [2000.0]
        assert all(not h.cancelled for h in keep)

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        for i in range(30):
            sim.schedule(float(30 - i), lambda s, i=i: fired.append(30 - i))
        doomed = [sim.schedule(100.0 + i, lambda s: None) for i in range(40)]
        for h in doomed:
            h.cancel()
        sim.run()
        assert fired == sorted(fired)


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

    def test_first_delay_grid(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(2.0, lambda s: times.append(s.now), first_delay=0.5)
        sim.run_until(8.0)
        assert times == [0.5, 2.5, 4.5, 6.5]


class TestClear:
    def test_drops_pending_events_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda s: fired.append("once"))
        series = sim.schedule_periodic(1.0, lambda s: fired.append(s.now))
        sim.run_until(1.5)
        assert fired == ["once", 1.0]
        sim.clear()
        assert sim.pending == 0 and sim.queue_size == 0
        assert sim.now == 1.5 and sim.events_processed == 2
        sim.run_until(10.0)
        assert fired == ["once", 1.0]
        handle.cancel()  # already fired: harmless
        series.cancel()  # its pending event was dropped: harmless
        assert sim.pending == 0

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

    def test_simulator_stays_usable(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.clear()
        times = []
        sim.schedule(2.0, lambda s: times.append(s.now))
        sim.run()
        assert times == [2.0] and sim.pending == 0


class TestCounters:
    def test_events_processed(self):
        sim = Simulator()
        for d in (1.0, 2.0):
            sim.schedule(d, lambda s: None)
        sim.run()
        assert sim.events_processed == 2

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_max_events_guard(self):
        sim = Simulator()

        def recur(s):
            s.schedule(1.0, recur)

        sim.schedule(1.0, recur)
        with pytest.raises(RuntimeError):
            sim.run(max_events=5)
