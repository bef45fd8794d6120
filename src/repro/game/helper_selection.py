"""The helper-selection stage game (paper Sec. III-A).

``N`` peers each choose one of ``H`` helpers.  Helper ``j``'s upload
capacity ``C_j`` is shared evenly among the peers connected to it, so a peer
on helper ``j`` receives

    u_i = r_i = C_j / load_j

where ``load_j`` is the number of peers that chose ``j``.  Capacities may be
fixed (a static stage game) or supplied per stage by the environment (the
Markov-modulated process of Sec. IV); the game object itself is stateless in
the capacities.

This is a congestion game with player-specific payoffs (Milchtaich [16]):
utilities depend on one's own choice and the *count* of players making the
same choice, never on identities, so the game always admits a pure Nash
equilibrium (see :mod:`repro.game.nash`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.game.strategic_game import NormalFormGame, Profile


def loads_from_profile(profile: Sequence[int], num_helpers: int) -> np.ndarray:
    """Per-helper connection counts for an action profile.

    ``profile[i]`` is the helper index chosen by peer ``i``.  Entries for
    peers that are offline may be ``-1`` and are skipped.
    """
    arr = np.asarray(profile, dtype=int)
    if arr.ndim != 1:
        raise ValueError("profile must be 1-D")
    active = arr[arr >= 0]
    if active.size and active.max() >= num_helpers:
        raise ValueError(
            f"profile references helper {active.max()} but only "
            f"{num_helpers} helpers exist"
        )
    return np.bincount(active, minlength=num_helpers).astype(int)


class HelperSelectionGame(NormalFormGame):
    """Stage game: ``num_peers`` peers choose among ``len(capacities)`` helpers.

    Parameters
    ----------
    num_peers:
        Number of players ``N``.
    capacities:
        Helper upload capacities ``C_j`` for this stage (kbit/s).
    connection_costs:
        Optional per-helper connection cost subtracted from the received
        rate (the paper's utility "reflects ... the cost associated with
        connection to a given helper"); defaults to zero.
    """

    def __init__(
        self,
        num_peers: int,
        capacities: Sequence[float],
        connection_costs: Optional[Sequence[float]] = None,
    ) -> None:
        if num_peers < 1:
            raise ValueError(f"num_peers must be >= 1, got {num_peers}")
        caps = np.asarray(capacities, dtype=float)
        if caps.ndim != 1 or caps.size < 1:
            raise ValueError("capacities must be a non-empty 1-D sequence")
        if np.any(caps < 0) or np.any(~np.isfinite(caps)):
            raise ValueError("capacities must be finite and non-negative")
        if connection_costs is None:
            costs = np.zeros(caps.size)
        else:
            costs = np.asarray(connection_costs, dtype=float)
            if costs.shape != caps.shape:
                raise ValueError("connection_costs must match capacities in length")
        self._num_peers = int(num_peers)
        self._capacities = caps
        self._costs = costs

    # ------------------------------------------------------------------
    # NormalFormGame interface
    # ------------------------------------------------------------------

    @property
    def num_players(self) -> int:
        return self._num_peers

    def num_actions(self, player: int) -> int:
        return self._capacities.size

    def utility(self, player: int, profile: Profile) -> float:
        arr = np.asarray(profile, dtype=int)
        if arr.size != self._num_peers:
            raise ValueError(
                f"profile has {arr.size} entries for {self._num_peers} peers"
            )
        j = int(arr[player])
        loads = loads_from_profile(arr, self.num_helpers)
        return float(self._capacities[j] / loads[j] - self._costs[j])

    # ------------------------------------------------------------------
    # Congestion-game specific helpers (vectorized; used everywhere)
    # ------------------------------------------------------------------

    @property
    def num_helpers(self) -> int:
        """Number of helpers ``H`` (= size of every action set)."""
        return self._capacities.size

    @property
    def capacities(self) -> np.ndarray:
        """Helper capacities ``C_j`` for this stage (read-only view)."""
        view = self._capacities.view()
        view.flags.writeable = False
        return view

    @property
    def connection_costs(self) -> np.ndarray:
        """Per-helper connection costs (read-only view)."""
        view = self._costs.view()
        view.flags.writeable = False
        return view

    def loads(self, profile: Sequence[int]) -> np.ndarray:
        """Per-helper connection counts under ``profile``."""
        return loads_from_profile(profile, self.num_helpers)

    def all_utilities(self, profile: Sequence[int]) -> np.ndarray:
        """All peers' utilities under ``profile`` in one vectorized pass."""
        arr = np.asarray(profile, dtype=int)
        if arr.size != self._num_peers:
            raise ValueError(
                f"profile has {arr.size} entries for {self._num_peers} peers"
            )
        loads = loads_from_profile(arr, self.num_helpers)
        return self._capacities[arr] / loads[arr] - self._costs[arr]

    def welfare(self, profile: Profile) -> float:
        """Social welfare; with even splitting this equals the total
        capacity of occupied helpers minus connection costs."""
        return float(self.all_utilities(profile).sum())

    def deviation_utility(
        self, profile: Sequence[int], player: int, action: int
    ) -> float:
        """Utility ``player`` would get by unilaterally switching to ``action``.

        O(1) given precomputed loads — used heavily by equilibrium checks.
        """
        arr = np.asarray(profile, dtype=int)
        loads = loads_from_profile(arr, self.num_helpers)
        current = int(arr[player])
        if action == current:
            return float(self._capacities[action] / loads[action] - self._costs[action])
        return float(
            self._capacities[action] / (loads[action] + 1) - self._costs[action]
        )

    def with_capacities(self, capacities: Sequence[float]) -> "HelperSelectionGame":
        """A copy of this stage game with different helper capacities."""
        return HelperSelectionGame(
            self._num_peers, capacities, connection_costs=self._costs
        )

    def proportional_loads(self) -> np.ndarray:
        """Capacity-proportional target loads ``N * C_j / sum(C)``.

        The fair/balanced benchmark the load-distribution figures compare
        against (not necessarily integral).
        """
        total = self._capacities.sum()
        if total <= 0:
            return np.zeros(self.num_helpers)
        return self._num_peers * self._capacities / total
