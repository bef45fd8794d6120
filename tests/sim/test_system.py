"""Tests for the end-to-end streaming system."""

import numpy as np
import pytest

from repro.core.r2hs import R2HSLearner
from repro.game.baselines import UniformRandomLearner
from repro.runtime.system import VectorizedStreamingSystem
from repro.sim.system import StreamingSystem
from repro.spec import (
    CapacitySpec,
    ChurnSpec,
    ExperimentSpec,
    MetricsSpec,
    TopologySpec,
)


def r2hs_factory(num_actions, rng):
    return R2HSLearner(num_actions, rng=rng, u_max=900.0)


def random_factory(num_actions, rng):
    return UniformRandomLearner(num_actions, rng=rng)


def spec_for(churn=ChurnSpec(), server_capacity=None, record_peers=False,
             **topology):
    """A scalar-backend spec: its default environment is per-helper chains."""
    return ExperimentSpec(
        backend="scalar",
        topology=TopologySpec(**topology),
        capacity=CapacitySpec(server_capacity=server_capacity),
        churn=churn,
        metrics=MetricsSpec(record_peers=record_peers),
    )


def build(spec=None, factory=r2hs_factory, seed=0):
    if spec is None:
        spec = spec_for(num_peers=12, num_helpers=4, channel_bitrates=100.0)
    return StreamingSystem(spec, factory, rng=seed)


def backend_system(spec, **kwargs):
    """The spec's backend, built with the spec's own learners."""
    if spec.backend == "scalar":
        return StreamingSystem(spec, spec.scalar_learner_factory(), **kwargs)
    return VectorizedStreamingSystem(spec, spec.bank_factory(), **kwargs)


class TestChannelBitrates:
    def test_one_rate_applies_to_every_channel(self):
        spec = spec_for(num_peers=2, num_helpers=4, num_channels=2,
                        channel_bitrates=250)
        assert spec.topology.bitrates() == (250.0, 250.0)
        system = build(spec)
        assert [c.bitrate for c in system.channels] == [250.0, 250.0]

    def test_one_rate_per_channel(self):
        spec = spec_for(num_peers=8, num_helpers=4, num_channels=2,
                        channel_bitrates=[100.0, 300.0])
        system = build(spec)
        assert [c.bitrate for c in system.channels] == [100.0, 300.0]
        assert sorted({p.demand for p in system.peers}) == [100.0, 300.0]


class TestSingleChannelRun:
    def test_round_count_and_times(self):
        system = build()
        trace = system.run(25)
        assert trace.num_rounds == 25
        assert np.allclose(np.diff(trace.times), 1.0)

    def test_incremental_runs_accumulate(self):
        system = build()
        system.run(10)
        trace = system.run(5)
        assert trace.num_rounds == 15

    def test_loads_sum_to_population(self):
        system = build()
        trace = system.run(20)
        assert np.all(trace.loads.sum(axis=1) == 12)

    def test_welfare_equals_share_sum(self):
        system = build()
        trace = system.run(10)
        # Each round's welfare must equal occupied capacity.
        occupied = np.where(trace.loads > 0, trace.capacities, 0.0)
        assert trace.welfare == pytest.approx(occupied.sum(axis=1))

    def test_server_covers_deficits(self):
        # Demand 100 each; shares C/n are mostly above demand for 12 peers
        # on 4 helpers (~3 peers/helper -> ~266 each), so server load ~ 0.
        system = build()
        trace = system.run(30)
        assert np.all(trace.server_load >= 0.0)
        assert trace.server_load[-1] == pytest.approx(0.0)

    def test_min_deficit_formula(self):
        spec = spec_for(num_peers=40, num_helpers=4, channel_bitrates=100.0)
        system = StreamingSystem(spec, r2hs_factory, rng=1)
        trace = system.run(5)
        # 40 * 100 demand vs 4 * 700 minimum capacity -> deficit 1200.
        assert np.allclose(trace.min_deficit, 1200.0)

    def test_peer_statistics_accumulate(self):
        system = build()
        system.run(15)
        for peer in system.peers:
            assert peer.rounds_participated == 15
            assert peer.average_rate > 0

    def test_server_capacity_bounds_topup(self):
        spec = spec_for(
            num_peers=40,
            num_helpers=4,
            channel_bitrates=200.0,
            server_capacity=500.0,
        )
        system = StreamingSystem(spec, r2hs_factory, rng=2)
        trace = system.run(10)
        assert np.all(trace.server_load <= 500.0 + 1e-9)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            build().run(0)


class TestRecordPeers:
    def test_trajectory_export(self):
        spec = spec_for(
            num_peers=8, num_helpers=4, channel_bitrates=100.0, record_peers=True
        )
        system = StreamingSystem(spec, r2hs_factory, rng=3)
        trace = system.run(20)
        trajectory = trace.to_trajectory()
        assert trajectory.actions.shape == (20, 8)
        assert np.all(trajectory.loads.sum(axis=1) == 8)

    def test_export_requires_recording(self):
        system = build()
        trace = system.run(5)
        with pytest.raises(ValueError):
            trace.to_trajectory()

    def test_record_peers_with_churn_raises(self):
        with pytest.raises(ValueError, match="record_peers requires a fixed"):
            spec_for(
                num_peers=8,
                num_helpers=4,
                channel_bitrates=100.0,
                record_peers=True,
                churn=ChurnSpec(arrival_rate=2.0),
            )


class TestChurnIntegration:
    def test_population_grows_with_arrivals_only(self):
        spec = spec_for(
            num_peers=5,
            num_helpers=4,
            channel_bitrates=100.0,
            churn=ChurnSpec(arrival_rate=0.5),
        )
        system = StreamingSystem(spec, r2hs_factory, rng=5)
        trace = system.run(100)
        assert trace.online_peers[-1] > 5

    def test_departed_peers_stop_participating(self):
        spec = spec_for(
            num_peers=10,
            num_helpers=4,
            channel_bitrates=100.0,
            churn=ChurnSpec(
                arrival_rate=0.0,
                mean_lifetime=20.0,
                initial_peer_lifetimes=True,
            ),
        )
        system = StreamingSystem(spec, r2hs_factory, rng=6)
        trace = system.run(200)
        assert trace.online_peers[-1] < 10
        departed = [p for p in system.peers if not p.online]
        assert departed
        for peer in departed:
            assert peer.left_at is not None

    def test_loads_match_online_population(self):
        spec = spec_for(
            num_peers=10,
            num_helpers=4,
            channel_bitrates=100.0,
            churn=ChurnSpec(arrival_rate=0.3, mean_lifetime=30.0),
        )
        system = StreamingSystem(spec, r2hs_factory, rng=7)
        trace = system.run(80)
        assert np.all(trace.loads.sum(axis=1) == trace.online_peers)

    def test_online_peers_follow_churn_and_switches_in_creation_order(self):
        """The online set is kept as peers join and leave; it must list
        exactly the online peers, in creation order, after every round."""
        spec = spec_for(
            num_peers=12,
            num_helpers=4,
            num_channels=2,
            channel_bitrates=100.0,
            channel_switch_rate=0.5,
            churn=ChurnSpec(
                arrival_rate=2.0,
                mean_lifetime=3.0,
                initial_peer_lifetimes=True,
            ),
        )
        system = StreamingSystem(spec, r2hs_factory, rng=8)
        for _ in range(60):
            system.run(1)
            assert system.online_peers() == [p for p in system.peers if p.online]
        assert system.channel_switches > 0
        assert len(system.peers) > len(system.online_peers()) + 12


class TestMultiChannel:
    def test_helpers_partitioned_round_robin(self):
        spec = spec_for(
            num_peers=9, num_helpers=7, num_channels=3, channel_bitrates=100.0
        )
        assert spec.topology.channel_helpers() == ((0, 3, 6), (1, 4), (2, 5))
        system = StreamingSystem(spec, r2hs_factory, rng=8)
        assert [h.helper_id for h in system.helpers] == list(range(7))
        assert [h.channel_id for h in system.helpers] == [0, 1, 2, 0, 1, 2, 0]

    def test_channel_helpers_cover_every_helper_once(self):
        for num_helpers, num_channels in ((4, 1), (6, 2), (7, 3), (5, 5)):
            partition = TopologySpec(
                num_helpers=num_helpers, num_channels=num_channels
            ).channel_helpers()
            assert len(partition) == num_channels
            assert sorted(h for helpers in partition for h in helpers) == list(
                range(num_helpers)
            )
            for channel, helpers in enumerate(partition):
                assert helpers == tuple(sorted(helpers))
                assert all(h % num_channels == channel for h in helpers)

    def test_peers_select_only_their_channels_helpers(self):
        spec = spec_for(
            num_peers=20, num_helpers=6, num_channels=2, channel_bitrates=100.0
        )
        system = StreamingSystem(spec, r2hs_factory, rng=9)
        system.run(10)
        for peer in system.online_peers():
            helpers = [
                system.helpers[h]
                for h in range(6)
                if peer.peer_id in system.helpers[h].connected
            ]
            assert len(helpers) == 1
            assert helpers[0].channel_id == peer.channel_id

    def test_vectorized_peers_select_only_their_channels_helpers(self):
        spec = ExperimentSpec(
            topology=TopologySpec(
                num_peers=20, num_helpers=7, num_channels=3, channel_bitrates=100.0
            ),
            metrics=MetricsSpec(record_peers=True),
        )
        system = VectorizedStreamingSystem(spec, spec.bank_factory(), rng=9)
        system.run(10)
        partition = spec.topology.channel_helpers()
        channels = system.store.channel[:20]
        assert set(channels.tolist()) == {0, 1, 2}
        for actions in system.trace.actions:
            for channel, helper in zip(channels, actions):
                assert helper in partition[channel]

    def test_popularity_skews_assignment(self):
        spec = spec_for(
            num_peers=300,
            num_helpers=4,
            num_channels=2,
            channel_bitrates=100.0,
            channel_popularity=[0.9, 0.1],
        )
        system = StreamingSystem(spec, random_factory, rng=10)
        counts = np.bincount(
            [p.channel_id for p in system.peers], minlength=2
        )
        assert counts[0] > counts[1] * 3

    def test_learner_factory_size_validated(self):
        spec = spec_for(num_peers=4, num_helpers=4, channel_bitrates=100.0)
        with pytest.raises(ValueError):
            StreamingSystem(
                spec, lambda h, rng: UniformRandomLearner(h + 1, rng=rng), rng=0
            )


class TestInitialChannels:
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_malformed_assignment_fails_with_one_message(self, backend):
        spec = ExperimentSpec(
            backend=backend,
            topology=TopologySpec(
                num_peers=4, num_helpers=4, num_channels=2, channel_bitrates=100.0
            ),
        )
        messages = set()
        for channels in ([0, 1, 0], [0, 1, 0, 1, 0], [0, 1, -1, 0], [0, 1, 2, 0]):
            with pytest.raises(ValueError) as info:
                backend_system(spec, rng=0, initial_channels=channels)
            messages.add(str(info.value))
        assert messages == {
            "initial_channels must list one channel id in [0, 2) for each "
            "of the 4 initial peers"
        }


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
class TestRunLoop:
    @staticmethod
    def spec(backend):
        # 12 peers at 400 kbps outrun 4 helpers' 700 kbps floor by 2000.
        return ExperimentSpec(
            backend=backend,
            topology=TopologySpec(
                num_peers=12, num_helpers=4, num_channels=2, channel_bitrates=400.0
            ),
        )

    def test_run_until_called_once_per_round(self, backend):
        # Per-round timing wraps the instance's run_until, so run must
        # look it up on each round and call it once.
        system = backend_system(self.spec(backend), rng=0)
        run_until = system.simulator.run_until
        calls = []

        def counted(end_time):
            calls.append(end_time)
            run_until(end_time)

        system.simulator.run_until = counted
        system.run(3)
        system.run(2)
        assert calls == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])
        assert system.trace.num_rounds == 5

    def test_capacity_floor_summed_once(self, backend):
        spec = self.spec(backend)
        process = spec.build_capacity_process(rng=1)
        minimum_capacities = process.minimum_capacities
        calls = []

        def counted():
            calls.append(None)
            return minimum_capacities()

        process.minimum_capacities = counted
        system = backend_system(spec, rng=0, capacity_process=process)
        system.run(4)
        assert len(calls) == 1
        np.testing.assert_allclose(system.trace.min_deficit, [2000.0] * 4)


class TestChannelSwitching:
    def test_switch_events_move_viewers(self):
        spec = spec_for(
            num_peers=30,
            num_helpers=4,
            num_channels=2,
            channel_bitrates=100.0,
            channel_popularity=[0.5, 0.5],
            channel_switch_rate=0.5,
        )
        system = StreamingSystem(spec, r2hs_factory, rng=11)
        trace = system.run(200)
        assert system.channel_switches > 0
        # Population stays constant: each switch is a leave + join.
        assert np.all(trace.online_peers == 30)
        # Switched-out peer objects are retired offline.
        retired = [p for p in system.peers if not p.online]
        assert len(retired) == system.channel_switches

    def test_switching_disabled_by_default(self):
        system = build()
        system.run(20)
        assert system.channel_switches == 0

    def test_record_peers_incompatible_with_switching(self):
        with pytest.raises(ValueError, match="record_peers requires a fixed"):
            spec_for(
                num_peers=10,
                num_helpers=4,
                channel_bitrates=100.0,
                channel_switch_rate=1.0,
                record_peers=True,
            )


def online_handles(system):
    """The churn handles of the online peers: peer ids or uids."""
    if isinstance(system, StreamingSystem):
        return [peer.peer_id for peer in system.online_peers()]
    store = system.store
    return store.uid[store.online_slots()].tolist()


def peer_state(system):
    """Every per-peer field a leave could touch, online and departed."""
    if isinstance(system, StreamingSystem):
        return [(p.peer_id, p.online, p.left_at) for p in system.peers]
    store = system.store
    return {
        name: getattr(store, name)[: store.size].copy()
        for name in ("uid", "online", "channel", "bank_row", "left_at")
    }


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
class TestStaleLeave:
    """A leave event for a peer that already left changes nothing.

    A churn handle is a peer id (scalar) or a uid (vectorized); neither
    is ever reused, so a lifetime event that fires after its peer left,
    by its own lifetime or by a channel switch, finds no online peer,
    even when a later join has recycled the peer's store slot.
    """

    def pair(self, backend):
        spec = ExperimentSpec(
            backend=backend,
            topology=TopologySpec(
                num_peers=10, num_helpers=4, num_channels=2, channel_bitrates=100.0
            ),
        )
        return [backend_system(spec, rng=3) for _ in range(2)]

    def test_stale_leave_is_a_no_op(self, backend):
        with_call, without = self.pair(backend)
        departed = []
        for system in (with_call, without):
            system.run(2)
            system._churn_leave(3)  # peer 3's lifetime ends
            joined = system._churn_join()
            before = online_handles(system)
            system._switch_once()
            switched_out = set(before) - set(online_handles(system))
            departed.append((joined, switched_out))
        assert departed[0] == departed[1]
        joined, switched_out = departed[0]
        assert len(switched_out) == 1 and joined not in switched_out
        if backend == "vectorized":
            # The join took peer 3's slot off the free-list.
            assert with_call.store.uid[3] == joined

        for handle in (3, *switched_out):
            with_call._churn_leave(handle)

        assert online_handles(with_call) == online_handles(without)
        assert len(online_handles(with_call)) == 10
        assert joined in online_handles(with_call)
        np.testing.assert_equal(peer_state(with_call), peer_state(without))
        if backend == "vectorized":
            assert with_call.store.uid[3] == joined and with_call.store.online[3]
        with_call.run(3)
        without.run(3)
        for name in ("times", "welfare", "server_load", "min_deficit",
                     "online_peers", "total_demand", "loads", "capacities"):
            assert np.array_equal(
                getattr(with_call.trace, name), getattr(without.trace, name)
            ), name
