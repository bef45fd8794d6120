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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Each name loads its defining module on first read (see repro._lazy):
# ``import repro`` compiles no subpackage, and a command compiles only the
# modules whose names it reads.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.r2hs": ["R2HSLearner", "regret_matching_learner"],
    "repro.core.population": ["LearnerPopulation"],
    "repro.core.equilibrium": [
        "empirical_ce_regret",
        "empirical_ce_regret_report",
        "is_epsilon_correlated_equilibrium",
        "solve_ce_lp",
    ],
    "repro.game.helper_selection": ["HelperSelectionGame"],
    "repro.game.repeated_game": [
        "RepeatedGameDriver", "Trajectory", "StaticCapacities",
    ],
    "repro.game.best_response": ["BestResponseLearner"],
    "repro.game.baselines": ["UniformRandomLearner", "StickyLearner"],
    "repro.mdp.markov_chain": [
        "MarkovChain", "BatchMarkovChains", "birth_death_chain",
    ],
    "repro.mdp.occupation_lp": ["solve_occupation_lp"],
    "repro.mdp.symmetric": [
        "solve_symmetric_optimum", "optimal_welfare_for_state",
    ],
    "repro.sim.bandwidth": [
        "PAPER_BANDWIDTH_LEVELS",
        "MarkovCapacityProcess",
        "TraceCapacityProcess",
        "paper_bandwidth_process",
        "VectorizedCapacityProcess",
    ],
    "repro.sim.system": ["StreamingSystem"],
    "repro.metrics.fairness": ["jain_index"],
    "repro.metrics.distributions": ["load_balance_report"],
    "repro.metrics.server_load": ["server_load_report"],
    "repro.runtime.peer_store": ["PeerStore"],
    "repro.runtime.learner_bank": ["UniformBank", "StickyBank", "bank_factory"],
    "repro.runtime.system": ["VectorizedStreamingSystem"],
    "repro.analysis.parallel": ["ParallelRunner"],
    "repro.spec.model": [
        "ExperimentSpec",
        "TopologySpec",
        "CapacitySpec",
        "LearnerSpec",
        "ChurnSpec",
        "MetricsSpec",
        "SweepSpec",
    ],
    "repro.spec.registry": [
        "UnknownComponentError",
        "register_capacity_backend",
        "register_learner",
        "register_metric",
        "register_scenario",
    ],
    "repro.workloads.scenarios": [
        "small_scale_spec",
        "large_scale_spec",
        "fig5_spec",
        "massive_scale_spec",
        "popularity_skew_spec",
        "flash_crowd_spec",
    ],
})
__all__ = ["__version__", *__all__]
