"""Tests for the experiments registry and the CLI.

The figure functions are exercised at reduced scale (they accept size
parameters) so the suite stays fast while touching the real pipelines.
"""

import io

import pytest

from repro.analysis.experiments import (
    ALL_FIGURES,
    fig1_worst_player_regret,
    fig2_welfare_vs_mdp,
    fig3_helper_load,
    fig4_peer_rates,
    fig5_server_load,
)
from repro.cli import FIGURE_DESCRIPTIONS, build_parser, main


class TestExperimentsRegistry:
    def test_all_figures_registered(self):
        assert sorted(ALL_FIGURES) == ["fig1", "fig2", "fig3", "fig4", "fig5"]
        # The CLI's figure choices come from the descriptions.
        assert sorted(FIGURE_DESCRIPTIONS) == sorted(ALL_FIGURES)

    def test_fig1_small(self):
        result = fig1_worst_player_regret(
            seed=0, num_peers=20, num_helpers=4, num_stages=400,
            sample_every=50,
        )
        assert result.name == "fig1_regret"
        assert "time-averaged worst regret" in result.text
        assert result.metrics["final_regret"] < result.metrics["first_regret"]

    def test_fig2_small(self):
        result = fig2_welfare_vs_mdp(seed=0, num_stages=400)
        assert result.metrics["optimality"] > 0.8
        assert "MDP optimum" in result.text

    def test_fig3_small(self):
        result = fig3_helper_load(
            seed=0, num_peers=12, num_helpers=3, num_stages=400
        )
        assert result.metrics["jain"] > 0.9
        assert "proportional target" in result.text

    def test_fig4_small(self):
        result = fig4_peer_rates(
            seed=0, num_peers=12, num_helpers=3, num_stages=400
        )
        assert result.name == "fig4_peer_rates"
        assert result.metrics["jain_time_averaged"] > 0.95
        assert "RTHS rate kbit/s" in result.text

    def test_fig5_small(self):
        result = fig5_server_load(seed=0, num_stages=240)
        assert result.metrics["steady_server_load"] > 0
        assert result.metrics["saving_fraction"] > 0.4

    def test_results_are_seed_deterministic(self):
        a = fig3_helper_load(seed=3, num_peers=8, num_helpers=2, num_stages=120)
        b = fig3_helper_load(seed=3, num_peers=8, num_helpers=2, num_stages=120)
        assert a.text == b.text
        assert a.metrics == b.metrics


class TestCLI:
    def test_parser_rejects_unknown_figure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "fig9"])

    def test_list_command(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in ALL_FIGURES:
            assert name in text

    def test_scenario_command(self):
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--peers", "6",
                "--helpers", "2",
                "--stages", "200",
                "--seed", "1",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "MDP optimum" in text
        assert "CE regret" in text

    def test_scenario_with_custom_mu(self):
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--peers", "4",
                "--helpers", "2",
                "--stages", "100",
                "--mu", "0.5",
            ],
            out=out,
        )
        assert code == 0
        assert "mu=0.5" in out.getvalue()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIRunCommand:
    def test_vectorized_backend(self):
        out = io.StringIO()
        code = main(
            [
                "run",
                "--set", "backend=vectorized",
                "--set", "topology.num_peers=50",
                "--set", "topology.num_helpers=5",
                "--set", "rounds=30",
                "--set", "seed=3",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "backend=vectorized" in text
        assert "mean_welfare" in text

    def test_scalar_backend_with_baseline_learner(self):
        out = io.StringIO()
        code = main(
            [
                "run",
                "--set", "backend=scalar",
                "--set", "learner.name=uniform",
                "--set", "topology.num_peers=20",
                "--set", "topology.num_helpers=4",
                "--set", "rounds=10",
            ],
            out=out,
        )
        assert code == 0
        assert "backend=scalar" in out.getvalue()

    def test_replications_aggregate(self):
        out = io.StringIO()
        code = main(
            [
                "run",
                "--set", "topology.num_peers=20",
                "--set", "topology.num_helpers=4",
                "--set", "rounds=10",
                "--replications", "3",
                "--workers", "1",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "replications=3" in text
        assert "std" in text

    def test_backends_agree_on_population_size(self):
        outs = {}
        for backend in ("scalar", "vectorized"):
            out = io.StringIO()
            main(
                [
                    "run",
                    "--set", f"backend={backend}",
                    "--set", "learner.name=uniform",
                    "--set", "topology.num_peers=30",
                    "--set", "topology.num_helpers=3",
                    "--set", "rounds=5",
                ],
                out=out,
            )
            outs[backend] = out.getvalue()
        for text in outs.values():
            assert "30.000" in text  # mean_online_peers row

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["run", "--set", "backend=gpu"])


class TestCLIFigureCommand:
    def test_figure_fig3_prints_table(self):
        out = io.StringIO()
        code = main(["figure", "fig3", "--seed", "1"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "fig3" in text
        assert "proportional target" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scenario", "--helpers", "1", "--stages", "10"], "two helpers"),
        (["scenario", "--peers", "0"], "num_peers must be >= 1"),
        (["scenario", "--stages", "0"], "num_stages must be >= 1"),
        (["scenario", "--epsilon", "0"], "epsilon must be strictly positive"),
        (["scenario", "--stay", "1.5"], "stay_probability must lie in [0, 1]"),
        (["figure", "fig3", "--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_bad_flag_value_is_one_clean_error(argv, message, capsys):
    """A bad ``scenario``/``figure`` flag value is one ``repro: error:``
    line and exit code 2, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv, out=io.StringIO())
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("repro: error: ")
    assert message in errors[0]
