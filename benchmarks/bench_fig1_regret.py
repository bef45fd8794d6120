"""Paper Fig. 1 — evolution of the worst player's regret (large scale).

Runs the large-scale scenario (N=100 peers, H=10 helpers, Markov bandwidth
over [700, 800, 900]) with the vectorized R2HS population and reports the
worst player's *time-averaged* regret (the quantity Hart & Mas-Colell's
theorem drives to zero) together with the instantaneous tracking regret
(which settles on a small noise floor by construction; see the
``repro.core.proxy_regret`` docstring).

Expected shape: the time-averaged curve decays steeply and flattens near
zero — the paper's "regret value approaches zero as the algorithm
converges".
"""

from repro.analysis.experiments import fig1_worst_player_regret

from conftest import write_artifact


def test_fig1_worst_player_regret(benchmark):
    result = benchmark.pedantic(
        fig1_worst_player_regret, rounds=1, iterations=1
    )
    write_artifact(result.name, result.text)
    assert result.metrics["final_regret"] < result.metrics["first_regret"] * 0.5
    assert result.metrics["final_regret"] < 0.02
