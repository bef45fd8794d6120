"""Pure Nash equilibria of the helper-selection congestion game.

A load vector ``(n_1, ..., n_H)`` with ``sum n_j = N`` is a pure NE iff no
peer gains by switching:

    for every j with n_j > 0 and every k != j:
        C_j / n_j  >=  C_k / (n_k + 1)

(player-specific congestion games always admit one; Milchtaich [16]).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.game.helper_selection import HelperSelectionGame, loads_from_profile


def is_pure_nash(game: HelperSelectionGame, profile: Sequence[int]) -> bool:
    """True iff ``profile`` is a pure Nash equilibrium of the stage game."""
    arr = np.asarray(profile, dtype=int)
    loads = loads_from_profile(arr, game.num_helpers)
    caps = game.capacities
    costs = game.connection_costs
    current = caps[arr] / loads[arr] - costs[arr]
    # Best unilateral deviation payoff is identical for every deviating peer:
    # C_k / (n_k + 1) - cost_k.
    deviation = caps / (loads + 1) - costs
    best_dev = deviation.max()
    return bool(np.all(current >= best_dev - 1e-12))


def nash_load_vectors(game: HelperSelectionGame) -> List[np.ndarray]:
    """All equilibrium *load vectors* (anonymous equilibria).

    Enumerates compositions of ``N`` into ``H`` parts; feasible for the
    small instances used in tests (the count grows as C(N+H-1, H-1)).
    """
    results = []
    for loads in compositions(game.num_players, game.num_helpers):
        if _loads_are_nash(game, np.asarray(loads)):
            results.append(np.asarray(loads, dtype=int))
    return results


def _loads_are_nash(game: HelperSelectionGame, loads: np.ndarray) -> bool:
    caps = game.capacities
    costs = game.connection_costs
    occupied = loads > 0
    if not occupied.any():
        return game.num_players == 0
    current = np.where(occupied, caps / np.maximum(loads, 1) - costs, np.inf)
    deviation = caps / (loads + 1) - costs
    return bool(current[occupied].min() >= deviation.max() - 1e-12)


def enumerate_pure_nash(
    game: HelperSelectionGame, limit: int = 100000
) -> Iterator[Tuple[int, ...]]:
    """Yield pure-NE action profiles by brute force (tiny games only).

    Raises :class:`ValueError` if the profile space exceeds ``limit``.
    """
    size = game.num_helpers ** game.num_players
    if size > limit:
        raise ValueError(
            f"profile space of size {size} exceeds limit {limit}; "
            "use nash_load_vectors for anonymous equilibria instead"
        )
    for profile in itertools.product(range(game.num_helpers), repeat=game.num_players):
        if is_pure_nash(game, profile):
            yield profile


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` non-negatives."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest

