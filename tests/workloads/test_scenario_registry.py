"""The scenario registry entries and the new load-skew families."""

import numpy as np
import pytest

from repro.spec import SCENARIOS, ExperimentSpec, register_capacity_backend, CAPACITY_BACKENDS
from repro.workloads import (
    fig5_spec,
    flash_crowd_spec,
    large_scale_spec,
    massive_scale_spec,
    popularity_skew_spec,
    small_scale_spec,
)

#: The paper presets by registered name, with the ``result_digest()`` of
#: their default spec (the key the results store files them under).
PAPER_PRESETS = {
    "small_scale": (small_scale_spec, "8b2c801b7079"),
    "large_scale": (large_scale_spec, "8df73b8eef08"),
    "fig5": (fig5_spec, "05aea21185ad"),
    "massive_scale": (massive_scale_spec, "af602b8fbb88"),
}


class TestPresetEntries:
    def test_small_scale_entry_matches_scenario(self):
        spec = SCENARIOS.get("small_scale")()
        assert isinstance(spec, ExperimentSpec)
        assert spec.topology.num_peers == 10
        assert spec.topology.num_helpers == 4
        assert spec.rounds == 2000

    def test_entries_accept_overrides(self):
        spec = SCENARIOS.get("large_scale")(
            num_peers=30, num_helpers=6, num_stages=50, backend="scalar"
        )
        assert spec.topology.num_peers == 30
        assert spec.backend == "scalar"

    def test_massive_scale_entry_scales_down_for_tests(self):
        spec = SCENARIOS.get("massive_scale")(
            num_peers=200, num_helpers=8, num_channels=2, num_stages=3
        )
        trace = spec.run().trace
        assert trace.num_rounds == 3
        assert trace.online_peers[-1] == 200

    @pytest.mark.parametrize("name", sorted(PAPER_PRESETS))
    def test_paper_presets_are_their_spec_factories(self, name):
        factory, _ = PAPER_PRESETS[name]
        assert SCENARIOS.get(name) is factory
        spec = factory(num_stages=77, backend="scalar", seed=4)
        assert (spec.rounds, spec.backend, spec.seed) == (77, "scalar", 4)

    @pytest.mark.parametrize("name", sorted(PAPER_PRESETS))
    def test_paper_presets_keep_their_digests(self, name):
        """Store keys: a preset's default spec keeps its results-store key."""
        _, digest = PAPER_PRESETS[name]
        assert SCENARIOS.get(name)().result_digest() == digest


class TestPopularitySkew:
    def test_weights_are_zipf_ordered(self):
        spec = popularity_skew_spec(
            num_peers=100, num_helpers=8, num_channels=4, num_stages=3
        )
        weights = np.asarray(spec.topology.channel_popularity)
        assert weights.shape == (4,)
        assert np.all(np.diff(weights) < 0)  # strictly decreasing
        assert weights.sum() == pytest.approx(1.0)

    def test_skew_concentrates_load_on_hot_channel_helpers(self):
        spec = popularity_skew_spec(
            num_peers=400,
            num_helpers=8,
            num_channels=4,
            zipf_exponent=1.5,
            num_stages=10,
            seed=2,
        )
        trace = spec.run().trace
        loads = trace.loads.mean(axis=0)
        # Helpers are round-robin over channels: helper j serves channel
        # j % 4.  Channel 0 (hottest) must out-load channel 3 (coldest).
        hot = loads[0::4].sum()
        cold = loads[3::4].sum()
        assert hot > 2 * cold

    def test_registry_entry_matches_function(self):
        kwargs = dict(num_peers=50, num_helpers=8, num_channels=4, num_stages=2)
        assert SCENARIOS.get("popularity_skew")(**kwargs) == popularity_skew_spec(**kwargs)


class TestFlashCrowd:
    def test_spec_shape(self):
        spec = flash_crowd_spec(num_peers=100, num_helpers=8, num_channels=2)
        assert spec.churn.arrival_rate > 0
        assert spec.churn.mean_lifetime is not None
        assert spec.churn.initial_peer_lifetimes
        assert spec.topology.channel_popularity is not None

    def test_crowd_actually_surges(self):
        spec = flash_crowd_spec(
            num_peers=50,
            num_helpers=8,
            num_channels=2,
            arrival_rate=20.0,
            mean_lifetime=30.0,
            num_stages=40,
            seed=1,
        )
        trace = spec.run().trace
        # Arrivals at 20/round with 30-round lifetimes push the steady
        # population toward ~600 >> the initial 50.
        assert trace.online_peers[-1] > 2 * 50
        assert trace.online_peers.max() > trace.online_peers[0]

    def test_round_trips_through_json(self):
        spec = flash_crowd_spec(num_peers=60, num_helpers=8)
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestThirdPartyBackendPlugin:
    def test_registered_backend_drives_spec_build(self):
        class FlatProcess:
            """Constant capacities: the simplest conforming process."""

            def __init__(self, num_helpers, level):
                self._caps = np.full(num_helpers, float(level))

            @property
            def num_helpers(self):
                return self._caps.size

            def capacities(self):
                return self._caps.copy()

            def advance(self):
                pass

            def minimum_capacities(self):
                return self._caps.copy()

        def build_flat(num_helpers, *, levels, stay_probability, rng):
            return FlatProcess(num_helpers, max(levels))

        register_capacity_backend("flat-test", build_flat)
        try:
            spec = ExperimentSpec.from_dict(
                {
                    "rounds": 4,
                    "topology": {"num_peers": 20, "num_helpers": 4},
                    # One level: only the built-in backends need two.
                    "capacity": {"backend": "flat-test", "levels": [900.0]},
                }
            )
            trace = spec.run().trace
            # Every round realizes exactly the flat aggregate capacity.
            assert np.allclose(trace.welfare, 4 * 900.0)
        finally:
            CAPACITY_BACKENDS.unregister("flat-test")
