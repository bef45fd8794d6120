"""Spec serialization round-trips and validation."""

import json

import numpy as np
import pytest

from repro.spec import (
    CapacitySpec,
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    SweepSpec,
    TopologySpec,
    UnknownComponentError,
)


def untimed(metrics) -> dict:
    """A run's metrics without the wall-clock ones."""
    return {
        name: value
        for name, value in metrics.items()
        if name not in ("elapsed_s", "rounds_per_s")
    }


def full_spec() -> ExperimentSpec:
    """A spec exercising every section, cheap enough to run in tests."""
    return ExperimentSpec(
        name="roundtrip",
        backend="vectorized",
        rounds=12,
        seed=9,
        topology=TopologySpec(
            num_peers=60,
            num_helpers=6,
            num_channels=2,
            channel_bitrates=(100.0, 250.0),
            channel_popularity=(0.7, 0.3),
        ),
        capacity=CapacitySpec(
            backend="vectorized",
            levels=(700.0, 800.0, 900.0),
            stay_probability=0.85,
        ),
        learner=LearnerSpec(name="r2hs", epsilon=0.07, delta=0.2, mu=1.5),
        churn=ChurnSpec(arrival_rate=0.2, mean_lifetime=30.0),
        metrics=MetricsSpec(metrics=("mean_welfare", "load_jain")),
        sweep_spec=SweepSpec(grid={"learner.epsilon": [0.02, 0.1]}, replications=2),
    )


class TestRoundTrip:
    def test_json_roundtrip_is_equal(self):
        spec = full_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec

    def test_json_is_plain_data(self):
        data = json.loads(full_spec().to_json())
        assert data["topology"]["num_peers"] == 60
        assert data["capacity"]["levels"] == [700.0, 800.0, 900.0]
        assert data["sweep"]["replications"] == 2

    def test_roundtrip_rebuilds_an_equivalent_system(self):
        spec = full_spec()
        clone = ExperimentSpec.from_json(spec.to_json())
        a = spec.run().metrics
        b = clone.run().metrics
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == pytest.approx(b[name])

    def test_file_roundtrip(self, tmp_path):
        spec = full_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_sections_are_optional(self):
        spec = ExperimentSpec.from_dict({"name": "bare", "rounds": 5})
        assert spec.backend == "vectorized"
        assert spec.topology == TopologySpec()

    def test_dict_roundtrip_without_sweep(self):
        spec = ExperimentSpec(rounds=3)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.sweep_spec is None


class TestValidation:
    def test_unknown_learner_lists_registered_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            LearnerSpec(name="gradient-descent")
        message = str(excinfo.value)
        assert "gradient-descent" in message
        for name in ("r2hs", "rths", "uniform", "sticky"):
            assert name in message

    def test_unknown_capacity_backend_lists_registered_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            CapacitySpec(backend="quantum")
        message = str(excinfo.value)
        assert "scalar" in message and "vectorized" in message

    def test_unknown_metric_lists_registered_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            MetricsSpec(metrics=("made_up_metric",))
        assert "mean_welfare" in str(excinfo.value)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec field"):
            ExperimentSpec.from_dict({"rounds": 5, "topologyy": {}})

    def test_unknown_section_field_rejected(self):
        with pytest.raises(ValueError, match="num_peersss"):
            ExperimentSpec.from_dict({"topology": {"num_peersss": 4}})

    def test_float32_requires_vectorized_backend(self):
        with pytest.raises(ValueError, match="float32"):
            ExperimentSpec(backend="scalar", learner=LearnerSpec(dtype="float32"))
        # vectorized is fine
        ExperimentSpec(backend="vectorized", learner=LearnerSpec(dtype="float32"))

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentSpec(backend="gpu")

    def test_with_overrides_unknown_path_lists_valid_keys(self):
        spec = ExperimentSpec()
        with pytest.raises(ValueError, match="epsilon"):
            spec.with_overrides({"learner.epsilonn": 0.1})
        with pytest.raises(ValueError, match="not a spec section"):
            spec.with_overrides({"lerner.epsilon": 0.1})

    def test_with_overrides_applies_dotted_paths(self):
        spec = ExperimentSpec().with_overrides(
            {"learner.epsilon": 0.2, "backend": "scalar", "rounds": 7}
        )
        assert spec.learner.epsilon == 0.2
        assert spec.backend == "scalar"
        assert spec.rounds == 7

    def test_sweep_grid_entries_must_be_non_empty(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(grid={"learner.epsilon": []})

    def test_sweep_grid_rejects_scalar_values(self):
        # a bare string would silently explode into per-character cells
        with pytest.raises(ValueError, match="list of values"):
            SweepSpec(grid={"backend": "scalar"})
        with pytest.raises(ValueError, match="list of values"):
            SweepSpec(grid={"rounds": 5})

    def test_sweep_grid_accepts_any_value_iterable(self):
        spec = SweepSpec(
            grid={"learner.epsilon": np.linspace(0.02, 0.1, 3), "rounds": range(2, 4)}
        )
        assert len(spec.parameter_sets()) == 6

    def test_regret_learner_needs_two_helpers_per_channel(self):
        with pytest.raises(ValueError, match="helper"):
            ExperimentSpec(
                topology=TopologySpec(num_helpers=2, num_channels=2),
                learner=LearnerSpec(name="r2hs"),
            )
        # baselines learn over a single helper fine
        ExperimentSpec(
            topology=TopologySpec(num_helpers=2, num_channels=2),
            learner=LearnerSpec(name="uniform"),
        )

    def test_topology_validates_at_construction(self):
        with pytest.raises(ValueError, match="num_peers"):
            TopologySpec(num_peers=0)
        with pytest.raises(ValueError, match="helper per channel"):
            TopologySpec(num_helpers=2, num_channels=4)
        with pytest.raises(ValueError, match="bitrates"):
            TopologySpec(channel_bitrates=-5.0)
        with pytest.raises(ValueError, match="round_duration"):
            TopologySpec(round_duration=0.0)
        with pytest.raises(ValueError, match="channel_switch_rate"):
            TopologySpec(channel_switch_rate=-0.1)
        # Out-of-range values fail as CLI cases in test_spec_fuzz.py; the
        # boundaries stay valid: a zero weight, a zero capacity level.
        TopologySpec(num_helpers=4, num_channels=2, channel_popularity=[0, 1])
        assert CapacitySpec(levels=[0, 700]).levels == (0.0, 700.0)

    def test_learner_validates_at_construction(self):
        with pytest.raises(ValueError, match="epsilon"):
            LearnerSpec(epsilon=0.0)

    def test_churn_validates_at_construction(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            ChurnSpec(arrival_rate=-1.0)
        with pytest.raises(ValueError, match="mean_lifetime"):
            ChurnSpec(mean_lifetime=0.0)

    def test_mean_lifetime_needs_arrivals_or_initial_lifetimes(self):
        with pytest.raises(ValueError, match="requires arrival_rate > 0"):
            ChurnSpec(mean_lifetime=20.0)
        with pytest.raises(ValueError, match="requires arrival_rate > 0"):
            ExperimentSpec.from_dict({"churn": {"mean_lifetime": 20.0}})
        assert ChurnSpec(arrival_rate=1.0, mean_lifetime=20.0).mean_lifetime == 20.0
        assert ChurnSpec(
            mean_lifetime=20.0, initial_peer_lifetimes=True
        ).initial_peer_lifetimes


class TestRunFacade:
    def test_run_uses_selected_metrics(self):
        spec = ExperimentSpec(
            rounds=5,
            topology=TopologySpec(num_peers=20, num_helpers=4),
            metrics=MetricsSpec(metrics=("mean_welfare", "welfare_series")),
        )
        result = spec.run()
        assert set(result.metrics) == {"mean_welfare", "welfare_series"}
        assert isinstance(result.metrics["welfare_series"], np.ndarray)
        assert result.metrics["welfare_series"].shape == (5,)

    def test_default_metrics_are_the_trace_summary(self):
        spec = ExperimentSpec(
            rounds=4, topology=TopologySpec(num_peers=10, num_helpers=4)
        )
        result = spec.run()
        assert result.metrics == result.trace.summary()

    def test_sweep_grid_expands_cross_product(self):
        spec = ExperimentSpec(
            rounds=3, topology=TopologySpec(num_peers=12, num_helpers=4)
        )
        result = spec.sweep(
            sweep=SweepSpec(
                grid={"learner.epsilon": [0.02, 0.1], "backend": ["vectorized", "scalar"]}
            )
        )
        assert len(result.cells) == 4
        assert [c.parameters["learner.epsilon"] for c in result.cells] == [
            0.02, 0.02, 0.1, 0.1,
        ]

    def test_sweep_worker_count_does_not_change_results(self):
        spec = ExperimentSpec(
            rounds=4,
            seed=11,
            topology=TopologySpec(num_peers=16, num_helpers=4),
        )
        grid = SweepSpec(grid={"learner.epsilon": [0.02, 0.05, 0.1]})
        serial = spec.sweep(workers=1, sweep=grid)
        fanned = spec.sweep(workers=3, sweep=grid)
        for a, b in zip(serial.cells, fanned.cells):
            assert a.parameters == b.parameters
            assert untimed(a.metrics) == untimed(b.metrics)

    def test_sweep_seeds_follow_grid_position(self):
        """Cell i runs on the i-th seed derived from the sweep's rng, so
        a cell's result does not depend on the cells after it, and moving
        a value to another grid position gives it another seed."""
        spec = ExperimentSpec(
            rounds=4,
            seed=11,
            topology=TopologySpec(num_peers=16, num_helpers=4),
        )

        def cells(values):
            grid = SweepSpec(grid={"learner.epsilon": values})
            return [untimed(c.metrics) for c in spec.sweep(sweep=grid).cells]

        head = cells([0.02])
        full = cells([0.02, 0.05, 0.1])
        assert full[0] == head[0]
        assert cells([0.05, 0.02])[1] != head[0]

    def test_sweep_replications_derive_distinct_seeds(self):
        spec = ExperimentSpec(
            rounds=3, topology=TopologySpec(num_peers=10, num_helpers=4)
        )
        result = spec.sweep(sweep=SweepSpec(replications=3))
        assert len(result.cells) == 3
        welfare = [c.metrics["mean_welfare"] for c in result.cells]
        assert len(set(welfare)) > 1


class TestTopKBankSpecFields:
    """learner.bank / learner.topk: serialization and validation."""

    def test_defaults_are_dense(self):
        spec = ExperimentSpec()
        assert spec.learner.bank == "dense"
        assert spec.learner.topk == 32

    def test_bank_fields_survive_json_roundtrip_bit_identically(self):
        spec = ExperimentSpec(
            backend="vectorized",
            learner=LearnerSpec(name="rths", bank="topk", topk=16),
        )
        text = spec.to_json()
        clone = ExperimentSpec.from_json(text)
        assert clone == spec
        assert clone.learner.bank == "topk"
        assert clone.learner.topk == 16
        assert clone.to_json() == text

    def test_topk_requires_vectorized_backend(self):
        with pytest.raises(ValueError, match="topk.*vectorized|vectorized"):
            ExperimentSpec(
                backend="scalar", learner=LearnerSpec(bank="topk")
            )

    def test_topk_requires_sparse_capable_family(self):
        with pytest.raises(ValueError, match="sparse"):
            ExperimentSpec(
                backend="vectorized",
                learner=LearnerSpec(name="uniform", bank="topk"),
            )

    def test_bad_bank_name_rejected(self):
        with pytest.raises(ValueError, match="bank"):
            LearnerSpec(bank="csr")

    def test_bad_topk_rejected(self):
        with pytest.raises(ValueError, match="topk"):
            LearnerSpec(topk=1)
        with pytest.raises(ValueError, match="topk"):
            LearnerSpec(topk=2.5)

    def test_sweep_over_bank_family(self):
        """The bank family is sweepable like any other spec field."""
        from repro.spec import SweepSpec

        spec = ExperimentSpec(
            rounds=4,
            topology=TopologySpec(num_peers=30, num_helpers=6),
            sweep_spec=SweepSpec(grid={"learner.bank": ["dense", "topk"]}),
        )
        cells = spec.sweep(workers=1).cells
        assert len(cells) == 2
        assert {c.parameters["learner.bank"] for c in cells} == {
            "dense", "topk",
        }
