"""Tests for repro.sim.entities."""

import pytest

from repro.game.baselines import UniformRandomLearner
from repro.sim.entities import Channel, Helper, Peer, StreamingServer


class TestChannel:
    def test_valid(self):
        channel = Channel(channel_id=0, bitrate=350.0)
        assert channel.bitrate == 350.0

    def test_rejects_nonpositive_bitrate(self):
        with pytest.raises(ValueError):
            Channel(channel_id=0, bitrate=0.0)


class TestHelper:
    def test_attach_detach(self):
        helper = Helper(helper_id=0, channel_id=0)
        helper.attach(3)
        helper.attach(5)
        assert helper.load == 2
        helper.detach(3)
        assert helper.load == 1

    def test_attach_idempotent(self):
        helper = Helper(helper_id=0, channel_id=0)
        helper.attach(3)
        helper.attach(3)
        assert helper.load == 1

    def test_detach_missing_is_noop(self):
        helper = Helper(helper_id=0, channel_id=0)
        helper.detach(99)
        assert helper.load == 0


class TestPeer:
    def _peer(self):
        return Peer(
            peer_id=0,
            channel_id=0,
            demand=100.0,
            learner=UniformRandomLearner(2, rng=0),
        )

    def test_average_rate_no_rounds(self):
        assert self._peer().average_rate == 0.0

    def test_average_rate(self):
        peer = self._peer()
        peer.rounds_participated = 4
        peer.cumulative_rate = 800.0
        assert peer.average_rate == 200.0

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            Peer(
                peer_id=0,
                channel_id=0,
                demand=0.0,
                learner=UniformRandomLearner(2, rng=0),
            )


class TestStreamingServer:
    def test_unbounded_serves_everything(self):
        server = StreamingServer()
        assert server.serve(1234.5) == 1234.5

    def test_capacity_clips(self):
        server = StreamingServer(capacity=100.0)
        assert server.serve(250.0) == 100.0

    def test_average_load(self):
        server = StreamingServer()
        server.serve(100.0)
        server.serve(300.0)
        assert server.average_load == 200.0

    def test_average_load_empty(self):
        assert StreamingServer().average_load == 0.0

    def test_rejects_negative_request(self):
        with pytest.raises(ValueError):
            StreamingServer().serve(-1.0)

