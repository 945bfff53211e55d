"""VM placement via learning-automata-guided multi-objective cuckoo search.

The package covers the full bin-packing-style placement pipeline: a problem
model with a synthetic near-saturation generator, multi-objective evaluation
(utilization, load-balance spread, active-server fraction), the LAMOCS
solver, GA/PSO/FFD baselines, an exact brute-force oracle for tiny instances,
and a benchmark harness with a CLI front end.
"""

from .automata import (
    Automaton,
    AutomatonBank,
    init_bank,
    penalize,
    reward,
    update_from_population,
)
from .baselines import (
    BruteForceResult,
    GaConfig,
    PsoConfig,
    brute_force,
    solve_ffd,
    solve_ga,
    solve_pso,
)
from .bench import RunRecord, RunReport, SweepConfig, derive_seed, run_pop_sweep, run_sweep
from .cuckoo import Nest, ParetoArchive, SolveResult, SolverConfig, decode, repair, solve
from .instance import (
    GeneratorConfig,
    GeneratorError,
    Placement,
    PlacementProblem,
    ResourceVector,
    generate_instance,
    read_instance,
    read_placement,
    total_capacity,
    write_instance,
    write_placement,
)
from .objectives import (
    ObjectiveVector,
    ScalarWeights,
    ServerLoad,
    Violation,
    check_feasible,
    dominates,
    eval_active_fraction,
    eval_load_balance,
    eval_resource_waste,
    eval_utilization,
    evaluate,
    scalarize,
    server_loads,
    utilization_sum,
)

__version__ = "0.1.0"
