"""Game-theoretic substrate: the helper-selection game and baseline dynamics.

The paper models helper selection as a non-cooperative repeated game (a
player-specific congestion game in the sense of Milchtaich [16]): each of
``N`` peers picks one of ``H`` helpers, a helper's capacity is split evenly
among the peers that picked it, and each peer's stage utility is its
received streaming rate.

This package contains:

* :mod:`repro.game.interfaces` — the minimal ``Learner`` protocol every
  strategy object implements (``act``/``observe``), shared by the learning
  algorithms in :mod:`repro.core` and the baselines here.
* :mod:`repro.game.strategic_game` — generic finite normal-form games.
* :mod:`repro.game.helper_selection` — the stage game itself.
* :mod:`repro.game.nash` — pure Nash equilibria of the stage game.
* :mod:`repro.game.best_response` — (simultaneous) best-response dynamics,
  exhibiting the herd-oscillation pathology of paper Sec. III-B, plus the
  sequential variant that converges.
* :mod:`repro.game.baselines` — comparison strategies (uniform random,
  sticky random, epsilon-greedy).
* :mod:`repro.game.repeated_game` — the stage-synchronous driver that runs a
  population of learners against a (possibly time-varying) capacity process
  and records full trajectories.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.game.interfaces": ["Learner"],
    "repro.game.strategic_game": ["NormalFormGame", "TabularGame"],
    "repro.game.helper_selection": ["HelperSelectionGame", "loads_from_profile"],
    "repro.game.nash": ["enumerate_pure_nash", "is_pure_nash"],
    "repro.game.best_response": [
        "BestResponseLearner", "simultaneous_best_response_path",
    ],
    "repro.game.baselines": [
        "UniformRandomLearner", "StickyLearner", "EpsilonGreedyLearner",
    ],
    "repro.game.repeated_game": ["RepeatedGameDriver", "StageRecord", "Trajectory"],
})
