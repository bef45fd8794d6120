"""TelemetrySpec wiring: spec round-trips, run attachment, sweep-wide
merge, the CLI flags (--telemetry / profile / --log-level), and worker
failure identity."""

import io
import json
import logging
from pathlib import Path

import pytest

from repro.analysis.parallel import ParallelRunner
from repro.cli import main
from repro.spec import ExperimentSpec, SweepSpec, TelemetrySpec, TopologySpec
from repro.telemetry import validate_snapshot
from repro.util import get_logger

ROOT = Path(__file__).resolve().parents[2]


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        name="tel-test",
        backend="vectorized",
        rounds=6,
        seed=3,
        topology=TopologySpec(
            num_peers=30, num_helpers=3, channel_bitrates=100.0
        ),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestTelemetrySpec:
    def test_default_is_disabled(self):
        spec = small_spec()
        assert not spec.telemetry.enabled
        assert spec.run().telemetry is None

    def test_round_trips_through_json(self):
        spec = small_spec(
            telemetry=TelemetrySpec(
                enabled=True,
                sinks=("memory",),
                flush_interval=5,
                sample_period=10,
            )
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.telemetry.sinks == ("memory",)

    def test_legacy_json_without_telemetry_key_loads_disabled(self):
        data = small_spec().to_dict()
        del data["telemetry"]
        spec = ExperimentSpec.from_dict(data)
        assert not spec.telemetry.enabled

    def test_unknown_sink_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="nope"):
            TelemetrySpec(enabled=True, sinks=("nope",))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySpec(flush_interval=-1)

    def test_enabled_run_attaches_a_valid_snapshot(self):
        spec = small_spec(telemetry=TelemetrySpec(enabled=True))
        result = spec.run()
        assert result.telemetry is not None
        assert validate_snapshot(result.telemetry) == []
        assert result.telemetry["phases"]["round.total"]["count"] == 6

    def test_telemetry_does_not_change_metrics(self):
        plain = small_spec().run()
        instrumented = small_spec(
            telemetry=TelemetrySpec(enabled=True)
        ).run()
        assert plain.metrics == instrumented.metrics

    def test_override_path_enables_telemetry(self):
        spec = small_spec().with_overrides({"telemetry.enabled": True})
        assert spec.telemetry.enabled
        assert spec.run().telemetry is not None


class TestSweepMergedTelemetry:
    def test_worker_snapshots_merge_across_cells(self):
        spec = small_spec(telemetry=TelemetrySpec(enabled=True))
        result = spec.sweep(workers=2, sweep=SweepSpec(replications=3))
        merged = result.merged_telemetry()
        assert merged is not None
        assert merged["merged_from"] == 3
        assert merged["phases"]["round.total"]["count"] == 18
        assert validate_snapshot(merged) == []

    def test_merged_telemetry_none_when_disabled(self):
        result = small_spec().sweep(
            workers=1, sweep=SweepSpec(replications=2)
        )
        assert result.merged_telemetry() is None

    def test_to_table_skips_the_telemetry_payload(self):
        spec = small_spec(telemetry=TelemetrySpec(enabled=True))
        result = spec.sweep(workers=1, sweep=SweepSpec(replications=2))
        table = result.to_table()
        assert "telemetry" not in table
        assert "mean_welfare" in table


#: A 30-peer, 3-helper, 5-round ``repro run``.
SMALL_RUN = [
    "--set", "topology.num_peers=30", "--set", "topology.num_helpers=3",
    "--set", "rounds=5",
]


class TestCliTelemetryFlag:
    def test_bare_flag_prints_merged_summary(self):
        out = io.StringIO()
        code = main(
            ["run", *SMALL_RUN, "--telemetry"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "telemetry summary" in text
        assert "round.total" in text

    def test_without_flag_no_summary(self):
        out = io.StringIO()
        code = main(
            ["run", *SMALL_RUN],
            out=out,
        )
        assert code == 0
        assert "telemetry summary" not in out.getvalue()

    def test_jsonl_sink_value_writes_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        out = io.StringIO()
        code = main(
            ["run", *SMALL_RUN, "--telemetry", f"jsonl:{path}"],
            out=out,
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in path.read_text().splitlines() if line.strip()
        ]
        assert records
        assert all(validate_snapshot(r) == [] for r in records)

    def test_bad_sink_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--telemetry", "carrier-pigeon"], out=io.StringIO()
            )
        assert excinfo.value.code == 2
        assert "carrier-pigeon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--output", "{path}", "--set", "rounds=2"],
        ["run", "--spec", "examples/smoke.json", "--telemetry=jsonl:{path}"],
    ],
    ids=["profile", "run"],
)
def test_jsonl_path_without_directory_fails_before_the_run(
    argv, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(ROOT)
    path = tmp_path / "absent" / "x.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(path=path) for arg in argv], out=io.StringIO())
    assert excinfo.value.code == 2
    errors = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("repro: error:")
    ]
    assert len(errors) == 1 and str(path.parent) in errors[0]
    assert not path.parent.exists()


class TestProfileCommand:
    def test_profile_reports_phases_and_coverage(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec(rounds=12).to_json())
        out = io.StringIO()
        code = main(["profile", "--spec", str(spec_path)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "profile: spec=" in text
        assert "round.total" in text
        assert "coverage" in text

    def test_profile_output_validates(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec(rounds=12).to_json())
        jsonl = tmp_path / "prof.jsonl"
        out = io.StringIO()
        code = main(
            ["profile", "--spec", str(spec_path), "--output", str(jsonl)],
            out=out,
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in jsonl.read_text().splitlines() if line.strip()
        ]
        assert records
        assert all(validate_snapshot(r) == [] for r in records)

    def test_profile_scalar_backend_profiles_dispatch(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            small_spec(backend="scalar", rounds=8).to_json()
        )
        out = io.StringIO()
        code = main(["profile", "--spec", str(spec_path)], out=out)
        assert code == 0
        assert "sim.dispatch" in out.getvalue()


class TestLogging:
    def test_log_level_flag_configures_repro_hierarchy(self):
        out = io.StringIO()
        code = main(
            ["--log-level", "debug", "run", *SMALL_RUN, "--set", "rounds=2"],
            out=out,
        )
        assert code == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_get_logger_namespaces_under_repro(self):
        assert get_logger("runtime").name == "repro.runtime"


def failing_cell(params, seed):
    """Module-level (picklable) cell that always blows up."""
    raise ValueError(f"bad cell x={params['x']}")


class TestWorkerFailureIdentity:
    def test_failure_names_the_cell_and_params(self):
        runner = ParallelRunner(workers=2)
        with pytest.raises(RuntimeError) as excinfo:
            runner.map_cells(failing_cell, [{"x": i} for i in range(3)], rng=0)
        message = str(excinfo.value)
        assert "sweep cell" in message
        assert "'x'" in message  # params echoed into the failure identity
        assert "bad cell" in message  # original traceback preserved
