"""One spec, two backends: the acceptance-criterion equivalence suite.

The same ``ExperimentSpec`` JSON, run with ``backend="scalar"`` and
``backend="vectorized"``, must produce trace-equivalent headline metrics.
Under a shared recorded environment the agreement is distributional (the
established tolerances of ``tests/runtime/test_equivalence.py``: same
dynamics, different RNG stream layouts); integer population accounting
must match exactly.

The spec is also the systems' only description: ``spec.build`` only
picks the backend, so a system built directly from the spec is the same
run, byte for byte.
"""

import numpy as np
import pytest

from repro.runtime import VectorizedStreamingSystem
from repro.sim import (
    StreamingSystem,
    TraceCapacityProcess,
    paper_bandwidth_process,
    record_capacity_trace,
)
from repro.spec import ExperimentSpec

SPEC_JSON = """
{
  "name": "equivalence",
  "backend": "vectorized",
  "rounds": 600,
  "seed": 1,
  "topology": {"num_peers": 60, "num_helpers": 4, "channel_bitrates": 100.0},
  "capacity": {"backend": "auto", "levels": [700.0, 800.0, 900.0]},
  "learner": {"name": "r2hs"}
}
"""


class TestOneSpecTwoBackends:
    def _run(self, spec, shared):
        system = spec.build(
            capacity_process=TraceCapacityProcess(shared.copy())
        )
        return system.run(spec.rounds)

    def test_headline_metrics_agree_across_backends(self):
        spec = ExperimentSpec.from_json(SPEC_JSON)
        T = spec.rounds
        shared = record_capacity_trace(
            paper_bandwidth_process(spec.topology.num_helpers, rng=5), T
        )
        tv = self._run(spec, shared)
        ts = self._run(spec.with_overrides({"backend": "scalar", "seed": 2}), shared)
        tail = slice(T // 2, None)
        ws, wv = ts.welfare[tail].mean(), tv.welfare[tail].mean()
        assert abs(ws - wv) / ws < 0.03
        ss, sv = ts.server_load[tail].mean(), tv.server_load[tail].mean()
        assert abs(ss - sv) < 0.05 * max(ss, 1.0)
        # Integer accounting agrees exactly.
        assert np.array_equal(ts.online_peers, tv.online_peers)
        assert np.array_equal(ts.total_demand, tv.total_demand)
        assert np.array_equal(ts.min_deficit, tv.min_deficit)
        n, h = spec.topology.num_peers, spec.topology.num_helpers
        for trace in (ts, tv):
            assert np.allclose(
                trace.loads[tail].mean(axis=0), n / h, atol=0.15 * n / h
            )

    def test_spec_metrics_agree_across_backends(self):
        """The spec's own metric evaluation, not just raw trace fields."""
        spec = ExperimentSpec.from_json(SPEC_JSON).with_overrides(
            {"metrics.metrics": ["mean_welfare", "tail_welfare", "load_jain"]}
        )
        shared = record_capacity_trace(
            paper_bandwidth_process(spec.topology.num_helpers, rng=8),
            spec.rounds,
        )
        mv = spec.metrics_of(self._run(spec, shared))
        ms = spec.metrics_of(
            self._run(spec.with_overrides({"backend": "scalar"}), shared)
        )
        assert ms["tail_welfare"] == pytest.approx(mv["tail_welfare"], rel=0.03)
        assert ms["load_jain"] == pytest.approx(mv["load_jain"], abs=0.02)

    def test_float32_spec_matches_float64_within_tolerance(self):
        """The float32 opt-in through the spec stays within the established
        float32 band on the vectorized backend."""
        base = ExperimentSpec.from_json(SPEC_JSON).with_overrides({"rounds": 300})
        shared = record_capacity_trace(
            paper_bandwidth_process(base.topology.num_helpers, rng=3), 300
        )
        t64 = self._run(base, shared)
        t32 = self._run(
            base.with_overrides({"learner.dtype": "float32"}), shared
        )
        tail = slice(150, None)
        w64, w32 = t64.welfare[tail].mean(), t32.welfare[tail].mean()
        assert abs(w64 - w32) / w64 < 0.03


#: Churn, viewer switching, popularity drift, a capacity transform, a
#: server cap and a network section: every part of the spec a system reads.
EVERYTHING = {
    "rounds": 40,
    "seed": 3,
    "topology": {
        "num_peers": 40, "num_helpers": 6, "num_channels": 2,
        "channel_bitrates": [100.0, 150.0], "channel_popularity": [2.0, 1.0],
        "channel_switch_rate": 0.5, "popularity_drift_rate": 0.2,
        "popularity_drift_period": 5.0,
    },
    "capacity": {
        "server_capacity": 3000.0,
        "transforms": [{"name": "failures", "options": {"failure_rate": 0.1}}],
    },
    "network": {"latency_ms": 80.0, "jitter_ms": 5.0},
    "churn": {
        "arrival_rate": 1.0, "mean_lifetime": 20.0,
        "initial_peer_lifetimes": True,
    },
}

TRACE_COLUMNS = (
    "times", "welfare", "server_load", "min_deficit", "online_peers",
    "total_demand", "capacities", "loads",
)


class TestOneConstructionPath:
    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_build_equals_the_directly_built_system(self, backend):
        spec = ExperimentSpec.from_dict(dict(EVERYTHING, backend=backend))
        if backend == "vectorized":
            direct = VectorizedStreamingSystem(spec, spec.bank_factory(), rng=11)
        else:
            direct = StreamingSystem(spec, spec.scalar_learner_factory(), rng=11)
        built = spec.build(rng=11)
        assert type(built) is type(direct)
        a, b = built.run(spec.rounds), direct.run(spec.rounds)
        for column in TRACE_COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column)), column
        # The run exercised what the spec describes: the failures
        # transform zeroes helpers, the link layer scales the rest off the
        # chain levels, and the population changed.
        caps = b.capacities
        assert (caps == 0).any()
        assert not np.isin(caps[caps > 0], spec.capacity.levels).any()
        assert direct.channel_switches > 0
        assert len(set(b.online_peers.tolist())) > 1
