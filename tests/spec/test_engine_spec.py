"""Spec/CLI surface of the removed engine switch, shard count and
capacity options.

``LearnerSpec.engine`` is parse-only: ``"auto"`` and ``"grouped"``
round-trip and change nothing, the removed ``"per_channel"`` fails with
one clean message, and the CLI no longer has ``--engine``.
``LearnerSpec.shards`` is parse-only too: ``1`` round-trips, builds
the one-process system on either backend and stays out of the result
digest; any other value fails at construction, and at the CLI as one
``repro: error:`` line.
``CapacitySpec.options`` is gone: options travel on the capacity
transform stage that consumes them.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.runtime import GroupedRegretBank, PerChannelGroupedBank
from repro.spec import ExperimentSpec

SMOKE = Path(__file__).resolve().parents[2] / "examples" / "smoke.json"


class TestEngineSpecField:
    def test_roundtrip_preserves_engine(self):
        spec = ExperimentSpec.from_dict(
            {"learner": {"name": "r2hs", "engine": "grouped"}}
        )
        assert spec.learner.engine == "grouped"
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict()["learner"]["engine"] == "grouped"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ExperimentSpec.from_dict({"learner": {"engine": "turbo"}})

    def test_per_channel_engine_removed(self):
        with pytest.raises(ValueError, match="per_channel.*removed"):
            ExperimentSpec.from_dict({"learner": {"engine": "per_channel"}})

    def test_built_system_uses_resolved_engine(self):
        # The family alone picks the bank; the engine field changes nothing.
        base = {
            "rounds": 5,
            "topology": {"num_peers": 12, "num_helpers": 6, "num_channels": 2},
        }
        for engine in ("auto", "grouped"):
            regret = dict(base, learner={"engine": engine})
            sticky = dict(base, learner={"name": "sticky", "engine": engine})
            assert isinstance(
                ExperimentSpec.from_dict(regret).build().bank, GroupedRegretBank
            )
            assert isinstance(
                ExperimentSpec.from_dict(sticky).build().bank,
                PerChannelGroupedBank,
            )

    def test_engines_run_bit_identically_through_the_spec(self):
        base = {
            "rounds": 40,
            "seed": 5,
            "topology": {"num_peers": 40, "num_helpers": 7, "num_channels": 3},
        }
        auto, grouped = (
            ExperimentSpec.from_dict(dict(base, learner={"engine": engine}))
            for engine in ("auto", "grouped")
        )
        ta, tg = auto.run().trace, grouped.run().trace
        assert np.array_equal(ta.welfare, tg.welfare)
        assert np.array_equal(ta.loads, tg.loads)
        assert np.array_equal(ta.server_load, tg.server_load)
        assert auto.result_digest() == grouped.result_digest()

    def test_engine_composes_with_topk_bank(self):
        spec = ExperimentSpec.from_dict(
            {
                "rounds": 10,
                "topology": {"num_peers": 20, "num_helpers": 12, "num_channels": 2},
                "learner": {"bank": "topk", "topk": 3, "engine": "grouped"},
            }
        )
        system = spec.build()
        assert isinstance(system.bank, GroupedRegretBank)
        assert system.banks[0].k == 3


class TestShardsSpecField:
    BASE = {
        "rounds": 5,
        "topology": {"num_peers": 12, "num_helpers": 6, "num_channels": 2},
    }

    def test_shards_excluded_from_result_digest(self):
        plain = ExperimentSpec.from_dict(self.BASE)
        spec = ExperimentSpec.from_dict(dict(self.BASE, learner={"shards": 1}))
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict()["learner"]["shards"] == 1
        assert spec.result_digest() == plain.result_digest()

    def test_missing_field_defaults_to_one_and_is_still_written(self):
        # Readers of dumped specs find the field whether or not the
        # source file carried it.
        spec = ExperimentSpec.from_dict(self.BASE)
        assert spec.learner.shards == 1
        assert spec.to_dict()["learner"]["shards"] == 1

    @pytest.mark.parametrize(
        "value", [0, 2, 9, -1, 1.0, 1.5, "1", None, True], ids=repr
    )
    def test_only_one_shard_is_accepted(self, value):
        # 2 and 9 were valid shard counts once; 1.0, "1" and True are
        # not the integer 1.
        with pytest.raises(ValueError, match="shards must be 1"):
            ExperimentSpec.from_dict(
                dict(self.BASE, learner={"shards": value})
            )

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_one_shard_builds_and_runs_on_every_backend(self, backend):
        spec = ExperimentSpec.from_dict(
            dict(self.BASE, backend=backend, learner={"shards": 1})
        )
        plain = ExperimentSpec.from_dict(dict(self.BASE, backend=backend))
        assert spec.run().metrics == plain.run().metrics


class TestShardsCli:
    def test_set_two_shards_is_one_error_before_dump(self, capsys):
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "--spec", str(SMOKE), "--set", "learner.shards=2",
                 "--dump-spec"],
                out=out,
            )
        assert excinfo.value.code == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("repro: error: ")
        assert "shards must be" in errors[0]

    def test_set_one_shard_leaves_dump_unchanged(self):
        plain, one = io.StringIO(), io.StringIO()
        assert main(["run", "--spec", str(SMOKE), "--dump-spec"],
                    out=plain) == 0
        assert main(
            ["run", "--spec", str(SMOKE), "--set", "learner.shards=1",
             "--dump-spec"],
            out=one,
        ) == 0
        assert one.getvalue() == plain.getvalue()
        assert json.loads(plain.getvalue())["learner"]["shards"] == 1


class TestCapacityOptions:
    def test_options_roundtrip(self):
        # Options live on the transform stage that consumes them.
        spec = ExperimentSpec.from_dict(
            {
                "capacity": {
                    "transforms": [
                        {"name": "failures", "options": {"failure_rate": 0.5}}
                    ]
                }
            }
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.capacity.transforms[0].options == {"failure_rate": 0.5}
        assert "options" not in clone.to_dict()["capacity"]

    def test_non_mapping_options_rejected(self):
        with pytest.raises(ValueError, match="options"):
            ExperimentSpec.from_dict(
                {"capacity": {"options": [1, 2, 3]}}
            )

    def test_options_field_removed(self):
        with pytest.raises(ValueError, match="unknown CapacitySpec field"):
            ExperimentSpec.from_dict(
                {"capacity": {"options": {"failure_rate": 0.5}}}
            )


class TestEngineCli:
    def test_engine_rejected_with_scalar_backend_at_parse_time(self, capsys):
        # --engine is gone: argparse rejects it on every backend.
        for backend in ("scalar", "vectorized"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    ["run", "--set", f"backend={backend}", "--engine", "grouped"],
                    out=io.StringIO(),
                )
            assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field",
        [
            ("capacity", {"backend": "failures"}),
            ("capacity", {"options": {"failure_rate": 0.5}}),
            ("learner", {"engine": "per_channel"}),
            ("learner", {"shards": 2}),
        ],
    )
    def test_removed_names_fail_with_one_clean_error(
        self, tmp_path, capsys, section, field
    ):
        data = json.loads(SMOKE.read_text())
        data.setdefault(section, {}).update(field)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", str(path)], out=io.StringIO())
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith("repro: error: ")
