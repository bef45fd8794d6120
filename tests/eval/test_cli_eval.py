"""CLI tests for ``repro eval``."""

import io
import json

import pytest

from repro.cli import main

SMALL = {
    "num_peers": 12,
    "num_helpers": 4,
    "num_channels": 2,
    "num_stages": 20,
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "name": "cli-eval",
                "scenarios": ["oscillating_capacity"],
                "learners": ["rths", "sticky"],
                "window": 8,
                "seed": 0,
                "scenario_options": {"oscillating_capacity": SMALL},
            }
        )
    )
    return str(path)


class TestDumpSpec:
    def test_flags_compile_into_an_eval_spec(self):
        out = io.StringIO()
        code = main(
            [
                "eval",
                "--set", 'scenarios=["oscillating_capacity", "flash_crowd"]',
                "--set", 'learners=["rths"]',
                "--set", "window=10",
                "--set", "rounds=50",
                "--set", "backend=scalar",
                "--set", "seed=3",
                "--dump-spec",
            ],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())
        assert data["scenarios"] == ["oscillating_capacity", "flash_crowd"]
        assert data["learners"] == ["rths"]
        assert data["window"] == 10
        assert data["rounds"] == 50
        assert data["backend"] == "scalar"
        assert data["seed"] == 3

    def test_flags_override_spec_file(self, spec_path):
        out = io.StringIO()
        code = main(
            ["eval", "--spec", spec_path, "--set", 'learners=["sticky"]',
             "--dump-spec"],
            out=out,
        )
        assert code == 0
        data = json.loads(out.getvalue())
        assert data["learners"] == ["sticky"]
        assert data["scenarios"] == ["oscillating_capacity"]


class TestRun:
    def test_table_output(self, spec_path):
        out = io.StringIO()
        assert main(["eval", "--spec", spec_path], out=out) == 0
        text = out.getvalue()
        assert "eval: spec=" in text
        assert "cells=2" in text
        assert "oscillating_capacity" in text
        assert "reward" in text

    def test_markdown_output(self, spec_path):
        out = io.StringIO()
        code = main(
            ["eval", "--spec", spec_path, "--format", "markdown"], out=out
        )
        assert code == 0
        assert "| scenario | learner |" in out.getvalue()

    def test_json_output_parses(self, spec_path):
        out = io.StringIO()
        assert main(["eval", "--spec", spec_path, "--format", "json"], out=out) == 0
        payload = out.getvalue().split("\n", 1)[1]  # drop the header line
        data = json.loads(payload)
        assert len(data["cells"]) == 2

    def test_output_file(self, spec_path, tmp_path):
        out = io.StringIO()
        target = tmp_path / "table.md"
        code = main(
            [
                "eval", "--spec", spec_path,
                "--format", "markdown", "--output", str(target),
            ],
            out=out,
        )
        assert code == 0
        assert "| scenario | learner |" in target.read_text()
        assert str(target) in out.getvalue()

    def test_store_commits_and_resumes(self, spec_path, tmp_path):
        store = tmp_path / "results"
        first = io.StringIO()
        assert main(
            ["eval", "--spec", spec_path, "--store", str(store)], out=first
        ) == 0
        second = io.StringIO()
        assert main(
            ["eval", "--spec", spec_path, "--store", str(store), "--resume"],
            out=second,
        ) == 0
        # Drop the header (it names the store path, identical anyway).
        assert first.getvalue() == second.getvalue()


class TestValidation:
    def test_unknown_learner_exits_2(self, spec_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--spec", spec_path, "--set", 'learners=["nope"]'])
        assert excinfo.value.code == 2

    def test_empty_matrix_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--set", 'learners=["rths"]'])
        assert excinfo.value.code == 2

    def test_resume_without_existing_store_exits_2(self, spec_path, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "eval", "--spec", spec_path,
                    "--store", str(tmp_path / "missing"), "--resume",
                ]
            )
        assert excinfo.value.code == 2

    def test_bad_scenario_option_exits_2(self, spec_path, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads(open(spec_path).read())
        data["scenario_options"]["oscillating_capacity"]["num_peerz"] = 1
        bad.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--spec", str(bad)])
        assert excinfo.value.code == 2
