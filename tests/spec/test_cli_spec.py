"""CLI integration for the spec layer: --spec, --set, --dump-spec, parse-time errors."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.eval import EvalSpec
from repro.spec import ExperimentSpec


ROOT = Path(__file__).resolve().parents[2]


def write_spec(tmp_path, **overrides):
    data = {
        "name": "cli-test",
        "backend": "vectorized",
        "rounds": 5,
        "seed": 3,
        "topology": {"num_peers": 30, "num_helpers": 3, "channel_bitrates": 100.0},
    }
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


class TestDumpSpec:
    def test_dump_spec_prints_roundtrippable_json(self):
        out = io.StringIO()
        code = main(
            ["run", "--set", "topology.num_peers=40",
             "--set", "topology.num_helpers=4", "--set", "rounds=9",
             "--set", "learner.name=rths", "--dump-spec"],
            out=out,
        )
        assert code == 0
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.topology.num_peers == 40
        assert spec.rounds == 9
        assert spec.learner.name == "rths"

    def test_dump_spec_does_not_run(self):
        out = io.StringIO()
        main(
            ["run", "--set", "topology.num_peers=10",
             "--set", "topology.num_helpers=3", "--dump-spec"],
            out=out,
        )
        assert "mean_welfare" not in out.getvalue()


class TestRunFromSpecFile:
    def test_spec_file_runs_end_to_end(self, tmp_path):
        path = write_spec(tmp_path)
        out = io.StringIO()
        code = main(["run", "--spec", str(path)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "backend=vectorized" in text
        assert "mean_welfare" in text
        assert "30.000" in text  # mean_online_peers from the file's topology

    def test_cli_flags_override_spec_fields(self, tmp_path):
        path = write_spec(tmp_path)
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--set", "backend=scalar",
             "--set", "learner.name=uniform", "--dump-spec"],
            out=out,
        )
        assert code == 0
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.backend == "scalar"
        assert spec.learner.name == "uniform"
        assert spec.topology.num_peers == 30  # untouched file field survives

    def test_explicit_flag_equal_to_default_still_overrides(self, tmp_path):
        """backend=vectorized IS the spec default, but setting it
        explicitly must still override a scalar-backend spec file (the
        float32 combination below is only legal after the override)."""
        path = write_spec(tmp_path, backend="scalar")
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--set", "backend=vectorized",
             "--set", "learner.dtype=float32", "--dump-spec"],
            out=out,
        )
        assert code == 0
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.backend == "vectorized"
        assert spec.learner.dtype == "float32"

    def test_mean_lifetime_allowed_when_spec_enables_churn(self, tmp_path):
        path = write_spec(
            tmp_path, churn={"arrival_rate": 5.0}
        )
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--set", "churn.mean_lifetime=40.0",
             "--dump-spec"],
            out=out,
        )
        assert code == 0
        spec = ExperimentSpec.from_json(out.getvalue())
        assert spec.churn.arrival_rate == 5.0
        assert spec.churn.mean_lifetime == 40.0

    def test_same_spec_file_runs_on_both_backends(self, tmp_path):
        path = write_spec(tmp_path)
        for backend in ("scalar", "vectorized"):
            out = io.StringIO()
            code = main(
                ["run", "--spec", str(path), "--set", f"backend={backend}"],
                out=out,
            )
            assert code == 0
            assert f"backend={backend}" in out.getvalue()
            assert "30.000" in out.getvalue()

    def test_missing_spec_file_fails_at_parse_time(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(tmp_path / "nope.json")], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_malformed_spec_file_fails_at_parse_time(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(path)], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_unknown_field_in_spec_file_fails_at_parse_time(self, tmp_path):
        path = write_spec(tmp_path, flux_capacitor=True)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(path)], out=io.StringIO())
        assert excinfo.value.code == 2

    def test_spec_file_sweep_section_is_honored(self, tmp_path):
        path = write_spec(
            tmp_path,
            sweep={"grid": {"learner.epsilon": [0.02, 0.1]}, "replications": 2},
        )
        out = io.StringIO()
        code = main(["run", "--spec", str(path)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "cells=4" in text  # 2 grid points x 2 replications
        assert "replications=2" in text

    def test_replications_flag_composes_with_spec_grid(self, tmp_path):
        path = write_spec(
            tmp_path, sweep={"grid": {"learner.epsilon": [0.02, 0.1]}}
        )
        out = io.StringIO()
        code = main(
            ["run", "--spec", str(path), "--replications", "3"], out=out
        )
        assert code == 0
        assert "cells=6" in out.getvalue()


class TestParseTimeValidation:
    def test_float32_with_scalar_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--set", "backend=scalar",
                 "--set", "learner.dtype=float32"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2
        assert "float32" in capsys.readouterr().err

    def test_unknown_learner_rejected_with_menu(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "learner.name=quantum"], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "quantum" in err and "r2hs" in err

    def test_unknown_capacity_backend_rejected_with_menu(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "capacity.backend=warp"], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "warp" in err and "vectorized" in err

    def test_invalid_topology_fails_cleanly_not_deep(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "topology.num_peers=0"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "num_peers" in capsys.readouterr().err

    def test_too_few_helpers_for_regret_learner_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--set", "topology.num_helpers=2",
                 "--set", "topology.num_channels=2"],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2
        assert "helper" in capsys.readouterr().err

    def test_zero_replications_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--replications", "0"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "--replications" in capsys.readouterr().err

    def test_negative_churn_rate_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "churn.arrival_rate=-1"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "arrival_rate" in capsys.readouterr().err

    def test_mean_lifetime_without_churn_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "churn.mean_lifetime=20"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "arrival_rate" in capsys.readouterr().err

    RECORD_A_SMALL_RUN = [
        "run", "--set", "metrics.record_peers=true",
        "--set", "topology.num_peers=10", "--set", "topology.num_helpers=4",
        "--set", "rounds=3",
    ]

    @pytest.mark.parametrize("change", [
        ["churn.arrival_rate=1.0"],
        ["churn.mean_lifetime=5.0", "churn.initial_peer_lifetimes=true"],
        ["topology.channel_switch_rate=1.0"],
    ])
    def test_record_peers_with_a_changing_population_fails_cleanly(
        self, change, capsys
    ):
        # Arrivals, departures and viewer switches would each fail the
        # per-peer recording part-way through the round loop.
        argv = list(self.RECORD_A_SMALL_RUN)
        for item in change:
            argv += ["--set", item]
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = err.strip().splitlines()[-1]
        assert error.startswith("repro: error:") and "record_peers" in error

    def test_record_peers_with_popularity_drift_runs(self):
        # Drift moves channel weights, not peers: the population is fixed.
        argv = self.RECORD_A_SMALL_RUN + [
            "--set", "topology.num_channels=2",
            "--set", "topology.popularity_drift_rate=0.5",
        ]
        assert main(argv, out=io.StringIO()) == 0

    def test_valid_combination_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--set", "backend=vectorized",
             "--set", "learner.dtype=float32"]
        )
        assert args.set == ["backend=vectorized", "learner.dtype=float32"]


def leaf_paths(data, prefix=""):
    """``(dotted path, value)`` for every non-section key of a spec dict."""
    for key, value in data.items():
        if isinstance(value, dict) and value:
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAVES = [
    ("run", path, value)
    for path, value in leaf_paths(ExperimentSpec(name="cli-run").to_dict())
] + [("eval", path, value) for path, value in leaf_paths(EvalSpec().to_dict())]


def dump(*argv):
    out = io.StringIO()
    assert main([*argv, "--dump-spec"], out=out) == 0
    return out.getvalue()


class TestSetOverrides:
    @pytest.mark.parametrize("command, path, value", LEAVES)
    def test_set_reaches_every_spec_path(self, command, path, value):
        assert dump(command, "--set", f"{path}={json.dumps(value)}") == dump(
            command
        )

    @pytest.mark.parametrize("command", ["run", "eval"])
    @pytest.mark.parametrize("item", ["foo=1", "topology.num_peer=5", "rounds"])
    def test_bad_item_is_one_cli_error(self, command, item, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--set", item, "--dump-spec"], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("repro: error: ")

    def test_later_item_for_a_path_wins(self):
        data = json.loads(dump("run", "--set", "rounds=5", "--set", "rounds=9"))
        assert data["rounds"] == 9
        data = json.loads(
            dump(
                "run", "--set", "topology.num_peers=3",
                "--set", 'topology={"num_peers": 5, "num_helpers": 4}',
                "--set", "topology.num_peers=7",
            )
        )
        assert data["topology"]["num_peers"] == 7
        assert data["topology"]["num_helpers"] == 4

    def test_value_is_json_else_a_string(self):
        data = json.loads(
            dump(
                "run", "--set", "learner.epsilon=1", "--set", "learner.delta=0.2",
                "--set", "backend=scalar", "--set", "name=\"7\"",
                "--set", 'metrics.metrics=["mean_welfare"]',
            )
        )
        assert data["learner"]["epsilon"] == 1
        assert type(data["learner"]["epsilon"]) is int
        assert data["learner"]["delta"] == 0.2
        assert data["backend"] == "scalar"
        assert data["name"] == "7"
        assert data["metrics"]["metrics"] == ["mean_welfare"]

    def test_int_and_float_values_key_different_results(self):
        as_int = ExperimentSpec.from_json(dump("run", "--set", "learner.epsilon=1"))
        as_float = ExperimentSpec.from_json(
            dump("run", "--set", "learner.epsilon=1.0")
        )
        assert as_int.result_digest() != as_float.result_digest()


class TestListCommand:
    def test_list_shows_registered_components(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for needle in ("scenarios", "flash_crowd", "learners", "r2hs",
                       "capacity backends", "metrics"):
            assert needle in text

    def test_reader_that_stops_early_gets_no_traceback(self):
        # The pipe's read end is closed before the child starts, so the
        # child's first write to stdout fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestTopKFlags:
    def test_dump_spec_emits_bank_and_topk_fields(self):
        out = io.StringIO()
        code = main(
            ["run", "--set", "topology.num_peers=50",
             "--set", "topology.num_helpers=40", "--set", "learner.bank=topk",
             "--set", "learner.topk=8", "--dump-spec"],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())
        assert data["learner"]["bank"] == "topk"
        assert data["learner"]["topk"] == 8

    def test_dump_spec_roundtrips_bit_identically(self):
        """The dumped JSON must reparse into a spec whose own dump is the
        same text — bank/topk included."""
        out = io.StringIO()
        code = main(
            ["run", "--set", "learner.bank=topk", "--set", "learner.topk=64",
             "--dump-spec"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        spec = ExperimentSpec.from_json(text)
        assert spec.to_json() + "\n" == text

    def test_default_dump_spec_emits_dense_bank(self):
        out = io.StringIO()
        main(["run", "--dump-spec"], out=out)
        data = json.loads(out.getvalue())
        assert data["learner"]["bank"] == "dense"
        assert data["learner"]["topk"] == 32

    def test_topk_run_executes(self):
        out = io.StringIO()
        code = main(
            ["run", "--set", "topology.num_peers=40",
             "--set", "topology.num_helpers=30", "--set", "rounds=5",
             "--set", "learner.bank=topk", "--set", "learner.topk=4"],
            out=out,
        )
        assert code == 0
        assert "mean_welfare" in out.getvalue()

    def test_topk_with_scalar_backend_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "backend=scalar", "--set", "learner.bank=topk"])
        assert excinfo.value.code == 2
        assert "vectorized" in capsys.readouterr().err

    def test_topk_with_baseline_learner_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--set", "learner.name=sticky", "--set", "learner.bank=topk"])
        assert excinfo.value.code == 2
        assert "sparse" in capsys.readouterr().err

    def test_spec_file_with_topk_bank_runs(self, tmp_path):
        path = write_spec(
            tmp_path,
            topology={"num_peers": 30, "num_helpers": 12,
                      "channel_bitrates": 100.0},
            learner={"name": "r2hs", "bank": "topk", "topk": 4},
        )
        out = io.StringIO()
        code = main(["run", "--spec", str(path)], out=out)
        assert code == 0
        assert "mean_welfare" in out.getvalue()
