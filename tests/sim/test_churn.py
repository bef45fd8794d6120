"""Tests for repro.sim.churn."""

from repro.sim.churn import ChurnProcess
from repro.sim.engine import Simulator
from repro.spec import ChurnSpec


class TestChurnProcess:
    def _run(self, churn, horizon=100.0, seed=0):
        sim = Simulator()
        joined = []
        left = []
        counter = {"next": 0}

        def on_join():
            pid = counter["next"]
            counter["next"] += 1
            joined.append((sim.now, pid))
            return pid

        process = ChurnProcess(
            churn, on_join=on_join, on_leave=lambda pid: left.append((sim.now, pid)), rng=seed
        )
        process.start(sim)
        sim.run_until(horizon)
        return process, joined, left

    def test_no_arrivals_when_disabled(self):
        process, joined, left = self._run(ChurnSpec())
        assert joined == [] and left == []

    def test_arrival_count_near_rate(self):
        process, joined, _ = self._run(
            ChurnSpec(arrival_rate=0.5), horizon=1000.0, seed=1
        )
        # Poisson(500): 4-sigma band.
        assert 400 < len(joined) < 600
        assert process.joins == len(joined)

    def test_lifetimes_trigger_leaves(self):
        process, joined, left = self._run(
            ChurnSpec(arrival_rate=0.5, mean_lifetime=5.0),
            horizon=500.0,
            seed=2,
        )
        assert left  # peers do leave
        assert process.leaves == len(left)
        # Every leaver joined earlier.
        join_times = {pid: t for t, pid in joined}
        for t, pid in left:
            assert t >= join_times[pid]

    def test_no_leaves_without_lifetime(self):
        _, joined, left = self._run(
            ChurnSpec(arrival_rate=0.5), horizon=200.0, seed=3
        )
        assert joined and not left

    def test_schedule_lifetime_for_initial_peer(self):
        sim = Simulator()
        left = []
        process = ChurnProcess(
            ChurnSpec(mean_lifetime=2.0, initial_peer_lifetimes=True),
            on_join=lambda: 0,
            on_leave=lambda pid: left.append(pid),
            rng=4,
        )
        process.schedule_lifetime(sim, 42)
        sim.run_until(1000.0)
        assert left == [42]

    def test_seeded_reproducibility(self):
        _, j1, l1 = self._run(
            ChurnSpec(arrival_rate=0.3, mean_lifetime=10.0), horizon=200.0, seed=9
        )
        _, j2, l2 = self._run(
            ChurnSpec(arrival_rate=0.3, mean_lifetime=10.0), horizon=200.0, seed=9
        )
        assert j1 == j2 and l1 == l2
