"""Correlated equilibria: empirical checks and exact LP solutions.

Paper Eq. (3-1): a joint distribution ``z`` over action profiles is a
correlated equilibrium (CE) of the expected game iff for every player ``i``
and every pair of actions ``j, k``

    sum_{a : a_i = j} z(a) * [ E u_i(k, a_{-i}) - E u_i(a) ]  <=  0.

Two consumers:

* **Empirical play.**  The regret-tracking theorem says the *empirical
  distribution of play* converges to the CE set.  For a recorded
  :class:`~repro.game.repeated_game.Trajectory` we evaluate the left-hand
  side directly on the sample (using the stage's realized capacities for
  the counterfactual), giving the per-``(i, j, k)`` **CE regret**; its
  positive part shrinking to ~0 certifies approach to the CE set.
* **Exact LP.**  For a small :class:`~repro.game.strategic_game.TabularGame`
  the CE set is a polytope; :func:`solve_ce_lp` optimizes a linear
  objective (welfare by default) over it with :func:`scipy.optimize.linprog`.
  Used to position RTHS welfare between worst and best CE in the analysis
  example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.game.repeated_game import Trajectory
from repro.game.strategic_game import NormalFormGame, Profile


@dataclass(frozen=True)
class CERegretReport:
    """Empirical CE regret of a trajectory.

    Attributes
    ----------
    regret:
        Array ``(N, H, H)``; entry ``[i, j, k]`` is the average gain player
        ``i`` would have obtained by playing ``k`` at every stage it played
        ``j`` (clipped below at 0 in :attr:`max_regret`).
    stages:
        Number of stages the average is taken over.
    """

    regret: np.ndarray
    stages: int

    @property
    def max_regret(self) -> float:
        """``max_{i,j,k} [regret]^+`` — distance-like score to the CE set."""
        return float(np.clip(self.regret, 0.0, None).max(initial=0.0))

    @property
    def per_player_max(self) -> np.ndarray:
        """Per-player maximum positive regret, shape ``(N,)``."""
        return np.clip(self.regret, 0.0, None).max(axis=(1, 2))

    @property
    def worst_triple(self) -> Tuple[int, int, int]:
        """The ``(player, played, alternative)`` triple attaining the max."""
        flat = int(np.argmax(np.clip(self.regret, 0.0, None)))
        return tuple(int(v) for v in np.unravel_index(flat, self.regret.shape))  # type: ignore[return-value]


def empirical_ce_regret_report(
    trajectory: Trajectory, u_max: Optional[float] = None
) -> CERegretReport:
    """Evaluate Eq. (3-1) on recorded play.

    For each stage the counterfactual utility of switching to helper ``k``
    is ``C_k / (n_k + 1)`` (joining the existing crowd) and staying is the
    realized rate; the report averages the differences over all stages,
    split by the action actually played.

    Parameters
    ----------
    trajectory:
        A recorded run of the repeated helper-selection game.
    u_max:
        Optional normalizer so regrets are comparable across capacity
        scales; pass the same value the learners used.
    """
    t, n = trajectory.actions.shape
    h = trajectory.loads.shape[1]
    if t == 0:
        raise ValueError("trajectory has no stages")
    scale = 1.0 if u_max is None else float(u_max)
    if scale <= 0:
        raise ValueError("u_max must be positive")
    regret = np.zeros((n, h, h))
    peer_index = np.arange(n)
    for stage in range(t):
        caps = trajectory.capacities[stage]
        loads = trajectory.loads[stage]
        actions = trajectory.actions[stage]
        realized = trajectory.utilities[stage]
        # Counterfactual: join helper k on top of its current crowd.
        deviation = caps / (loads + 1.0)
        diff = deviation[None, :] - realized[:, None]  # (N, H)
        diff[peer_index, actions] = 0.0
        regret[peer_index, actions, :] += diff
    regret /= t * scale
    return CERegretReport(regret=regret, stages=t)


def empirical_ce_regret(
    trajectory: Trajectory, u_max: Optional[float] = None
) -> float:
    """Scalar shortcut: the max positive empirical CE regret."""
    return empirical_ce_regret_report(trajectory, u_max=u_max).max_regret


def is_epsilon_correlated_equilibrium(
    trajectory: Trajectory, epsilon: float, u_max: Optional[float] = None
) -> bool:
    """True iff the empirical play is an ``epsilon``-CE (Eq. 3-1 within eps)."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return empirical_ce_regret(trajectory, u_max=u_max) <= epsilon


# ----------------------------------------------------------------------
# Exact CE polytope on small tabular games
# ----------------------------------------------------------------------


def solve_ce_lp(
    game: NormalFormGame,
    objective: str = "welfare",
    profile_limit: int = 200000,
) -> Tuple[Dict[Profile, float], float]:
    """Optimize a linear objective over the CE polytope of a finite game.

    Parameters
    ----------
    game:
        Any finite game; its profile space is enumerated, so keep it small
        (``profile_limit`` guards against blow-ups).
    objective:
        ``"welfare"`` maximizes total utility; ``"min_welfare"`` minimizes
        it (the worst CE); ``"uniform"`` just finds a feasible CE closest
        to maximizing entropy proxy (uniform-objective feasibility).

    Returns
    -------
    (distribution, value):
        The optimizing joint distribution as ``{profile: probability}``
        (zero-probability profiles omitted) and the objective value
        (always reported as total welfare of the returned distribution).

    scipy is imported on the first call, so the rest of the package runs
    on numpy alone.
    """
    from scipy.optimize import linprog

    profiles = list(game.all_profiles())
    if len(profiles) > profile_limit:
        raise ValueError(
            f"profile space has {len(profiles)} entries, over limit {profile_limit}"
        )
    index = {p: i for i, p in enumerate(profiles)}
    num_vars = len(profiles)
    welfare = np.array([game.welfare(p) for p in profiles])

    # CE constraints: one row per (player, played j, alternative k != j).
    rows = []
    for i in range(game.num_players):
        actions = game.num_actions(i)
        for j in range(actions):
            for k in range(actions):
                if k == j:
                    continue
                row = np.zeros(num_vars)
                touched = False
                for p in profiles:
                    if p[i] != j:
                        continue
                    gain = game.utility(i, game.deviate(p, i, k)) - game.utility(i, p)
                    if gain != 0.0:
                        row[index[p]] = gain
                        touched = True
                if touched:
                    rows.append(row)
    a_ub = np.vstack(rows) if rows else None
    b_ub = np.zeros(len(rows)) if rows else None
    a_eq = np.ones((1, num_vars))
    b_eq = np.array([1.0])

    if objective == "welfare":
        c = -welfare
    elif objective == "min_welfare":
        c = welfare
    elif objective == "uniform":
        c = np.zeros(num_vars)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * num_vars,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"CE LP failed: {result.message}")
    z = np.clip(result.x, 0.0, None)
    z /= z.sum()
    dist = {
        profiles[i]: float(z[i]) for i in range(num_vars) if z[i] > 1e-12
    }
    value = float(welfare @ z)
    return dist, value


def ce_welfare_bounds(game: NormalFormGame) -> Tuple[float, float]:
    """(worst, best) social welfare over the CE polytope of a small game."""
    _, worst = solve_ce_lp(game, objective="min_welfare")
    _, best = solve_ce_lp(game, objective="welfare")
    return worst, best
