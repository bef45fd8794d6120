"""repro — reproduction of "Decentralized Adaptive Helper Selection in
Multi-channel P2P Streaming Systems" (Mostafavi & Dehghan, ICDCS 2014).

The package implements the paper's RTHS / R2HS regret-tracking helper
selection algorithms, the multi-channel P2P streaming substrate they run
on, the centralized MDP (occupation-measure LP) benchmark, and the full
evaluation harness regenerating every figure in the paper's Section IV.

Quick start::

    import repro

    spec = repro.small_scale_spec(backend="scalar")
    process = spec.build_capacity_process(rng=1)
    population = spec.build_population(rng=2)
    trajectory = population.run(process, spec.rounds)
    print(trajectory.welfare[-100:].mean())

For population-scale full-system runs use the vectorized runtime::

    system = repro.massive_scale_spec().build(rng=0)
    trace = system.run(100)

See ``examples/`` for end-to-end scripts and the repository ``README.md``
for the system inventory and the scalar-vs-vectorized backend guide.
"""

from repro.core import (
    LearnerPopulation,
    R2HSLearner,
    empirical_ce_regret,
    empirical_ce_regret_report,
    is_epsilon_correlated_equilibrium,
    regret_matching_learner,
    solve_ce_lp,
)
from repro.game import (
    BestResponseLearner,
    HelperSelectionGame,
    RepeatedGameDriver,
    StickyLearner,
    Trajectory,
    UniformRandomLearner,
)
from repro.game.repeated_game import StaticCapacities
from repro.mdp import (
    BatchMarkovChains,
    MarkovChain,
    birth_death_chain,
    optimal_welfare_for_state,
    solve_occupation_lp,
    solve_symmetric_optimum,
)
from repro.analysis import ParallelRunner
from repro.metrics import jain_index, load_balance_report, server_load_report
from repro.runtime import (
    PeerStore,
    StickyBank,
    UniformBank,
    VectorizedStreamingSystem,
    bank_factory,
)
from repro.sim import (
    PAPER_BANDWIDTH_LEVELS,
    ChurnConfig,
    MarkovCapacityProcess,
    StreamingSystem,
    SystemConfig,
    TraceCapacityProcess,
    VectorizedCapacityProcess,
    paper_bandwidth_process,
)
from repro.spec import (
    CapacitySpec,
    ChurnSpec,
    ExperimentSpec,
    LearnerSpec,
    MetricsSpec,
    SweepSpec,
    TopologySpec,
    UnknownComponentError,
    register_capacity_backend,
    register_learner,
    register_metric,
    register_scenario,
)
from repro.workloads import (
    fig5_spec,
    flash_crowd_spec,
    large_scale_spec,
    massive_scale_spec,
    popularity_skew_spec,
    small_scale_spec,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "R2HSLearner",
    "regret_matching_learner",
    "LearnerPopulation",
    "empirical_ce_regret",
    "empirical_ce_regret_report",
    "is_epsilon_correlated_equilibrium",
    "solve_ce_lp",
    # game
    "HelperSelectionGame",
    "RepeatedGameDriver",
    "Trajectory",
    "StaticCapacities",
    "BestResponseLearner",
    "UniformRandomLearner",
    "StickyLearner",
    # mdp
    "MarkovChain",
    "birth_death_chain",
    "solve_occupation_lp",
    "solve_symmetric_optimum",
    "optimal_welfare_for_state",
    # sim
    "PAPER_BANDWIDTH_LEVELS",
    "MarkovCapacityProcess",
    "TraceCapacityProcess",
    "paper_bandwidth_process",
    "VectorizedCapacityProcess",
    "BatchMarkovChains",
    "StreamingSystem",
    "SystemConfig",
    "ChurnConfig",
    # metrics
    "jain_index",
    "load_balance_report",
    "server_load_report",
    # runtime
    "PeerStore",
    "UniformBank",
    "StickyBank",
    "bank_factory",
    "VectorizedStreamingSystem",
    # analysis
    "ParallelRunner",
    # spec
    "ExperimentSpec",
    "TopologySpec",
    "CapacitySpec",
    "LearnerSpec",
    "ChurnSpec",
    "MetricsSpec",
    "SweepSpec",
    "UnknownComponentError",
    "register_capacity_backend",
    "register_learner",
    "register_metric",
    "register_scenario",
    # workloads
    "small_scale_spec",
    "large_scale_spec",
    "fig5_spec",
    "massive_scale_spec",
    "popularity_skew_spec",
    "flash_crowd_spec",
]
