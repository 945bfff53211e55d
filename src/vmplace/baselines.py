"""Baseline solvers: genetic algorithm, particle swarm, first-fit decreasing, brute force."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

# _evaluate_rows is not called here: the solvers evaluate through _Run.  The
# name stays bound because perfbench/tracing.py patches it in this module.
from .cuckoo import SolveResult, _Batch, _check_search, _evaluate_rows, _Run, _search  # noqa: F401
from .instance import Placement, PlacementProblem
from .objectives import ObjectiveVector, ScalarWeights, _fits, _slack, batch_loads, batch_objectives, batch_scalarize

__all__ = [
    "GaConfig",
    "PsoConfig",
    "BruteForceResult",
    "solve_ga",
    "solve_pso",
    "solve_ffd",
    "brute_force",
]

BRUTE_FORCE_LIMIT = 10_000_000

# The baselines run at fixed textbook parameters.
GA_CROSSOVER_RATE = 0.7
GA_MUTATION_RATE = 0.05
PSO_INERTIA = 0.7
PSO_C1 = 1.5
PSO_C2 = 1.5


@dataclass(frozen=True)
class GaConfig:
    """Generational GA settings: tournament-2, single-point crossover, elitism of 1."""

    pop_size: int = 100
    generations: int = 500
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)

    def __post_init__(self) -> None:
        _check_search(self, "generations")


@dataclass(frozen=True)
class PsoConfig:
    """Global-best PSO settings."""

    pop_size: int = 100
    iterations: int = 500
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)

    def __post_init__(self) -> None:
        _check_search(self, "iterations")


def solve_ga(problem: PlacementProblem, config: GaConfig, trace: TextIO | None = None) -> SolveResult:
    """Generational GA over repaired assignments; deterministic for a fixed seed.

    Chromosomes store the repaired assignment itself, so repair improvements
    are inherited.  Each generation produces one child per tournament pair
    plus a single elite copy of the best individual.
    """
    return _search(problem, config, config.generations, trace, _ga)


def _ga(run: _Run, rng: np.random.Generator, config: GaConfig):
    """``solve_ga``'s operator: yields each generation's rows, then the population they make."""
    m, n = run.problem.m, run.problem.n
    pop = config.pop_size
    population = (yield rng.integers(0, m, (pop, n))).copy()
    yield population

    # Per-solve buffers: the children, the second parents' rows and the
    # crossover mask.  Mutation draws a site and a server only for the about
    # GA_MUTATION_RATE share of genes it resets.
    children = np.empty((pop - 1, n), dtype=np.int64)
    mates = np.empty_like(children)
    mask = np.empty(children.shape, dtype=bool)
    cols = np.arange(n)
    while True:
        rows, scalars = population.rows, population.scalars
        elite = int(np.argmin(scalars))
        tours = rng.integers(0, pop, (pop - 1, 4))
        first = np.where(scalars[tours[:, 0]] <= scalars[tours[:, 1]], tours[:, 0], tours[:, 1])
        second = np.where(scalars[tours[:, 2]] <= scalars[tours[:, 3]], tours[:, 2], tours[:, 3])
        rows.take(first, axis=0, out=children, mode="clip")
        crossed = rng.random(pop - 1) < GA_CROSSOVER_RATE
        if n >= 2:
            points = rng.integers(1, n, pop - 1)
            # children take the second parent's genes from their cut point on
            np.greater_equal(cols, points[:, None], out=mask)
            mask &= crossed[:, None]
            np.copyto(children, rows.take(second, axis=0, out=mates, mode="clip"), where=mask)
        sites = _bernoulli_sites(rng, children.size, GA_MUTATION_RATE)
        children.put(sites, rng.integers(0, m, sites.size))

        # the elite moves to row 0 and the scored children fill the rest
        offspring = yield children
        population.put(0, population, elite)
        population.put(slice(1, None), offspring, slice(None))
        yield population


def _bernoulli_sites(rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
    """Sorted flat indices below ``size``, each included independently with probability ``rate``.

    The gaps between the successes of a Bernoulli process are i.i.d.
    geometric (Devroye 1986, ch. 10), so the sites are the cumulative sums
    of ``rng.geometric`` draws, made a chunk at a time (the mean site count
    plus 4 standard deviations) until one passes ``size``.  This draws about
    ``size * rate`` numbers instead of ``size``.
    """
    mean = size * rate
    chunk = math.ceil(mean + 4.0 * math.sqrt(mean * (1.0 - rate))) + 1
    ends = np.cumsum(rng.geometric(rate, chunk))
    while ends[-1] <= size:
        ends = np.concatenate((ends, ends[-1] + np.cumsum(rng.geometric(rate, chunk))))
    return ends[: np.searchsorted(ends, size, side="right")] - 1


def solve_pso(problem: PlacementProblem, config: PsoConfig, trace: TextIO | None = None) -> SolveResult:
    """Global-best PSO over continuous positions; deterministic for a fixed seed.

    Velocities start at zero, and each coordinate is clamped to
    ``0.5 * (m - 1)``.  A particle's best position snaps repaired
    coordinates onto their repaired server index, so recorded attractors
    always decode to the placement that earned their score.
    """
    return _search(problem, config, config.iterations, trace, _pso)


def _pso(run: _Run, rng: np.random.Generator, config: PsoConfig):
    """``solve_pso``'s operator: yields each move's positions, then the swarm they make."""
    m, n = run.problem.m, run.problem.n
    pop = config.pop_size
    v_max = 0.5 * (m - 1)
    X = rng.uniform(1.0, float(m), (pop, n))
    V = np.zeros((pop, n))

    swarm = yield X
    yield swarm
    pbest_X = swarm.positions.copy()
    pbest_scalars = swarm.scalars.copy()

    r1, r2, gap = np.empty((pop, n)), np.empty((pop, n)), np.empty((pop, n))
    while True:
        rng.random(out=r1)
        rng.random(out=r2)
        _pso_move(X, V, pbest_X, run.best[0], r1, r2, gap, v_max, m)

        swarm = yield X
        improved = swarm.scalars < pbest_scalars
        np.copyto(pbest_X, swarm.positions, where=improved[:, None])
        pbest_scalars[improved] = swarm.scalars[improved]
        yield swarm


def _pso_move(X, V, pbest_X, gbest, r1, r2, gap, v_max: float, m: int) -> None:
    """Move the swarm in place: ``V = w V + c1 r1 (pbest_X - X) + c2 r2 (gbest - X)``.

    ``V`` is clamped to ``[-v_max, v_max]``, then ``X = clip(X + V, 1, m)``.
    The float operations run in the expression's order; ``r1``, ``r2`` and
    ``gap`` are overwritten.
    """
    V *= PSO_INERTIA
    r1 *= PSO_C1
    r1 *= np.subtract(pbest_X, X, out=gap)
    V += r1
    r2 *= PSO_C2
    r2 *= np.subtract(gbest, X, out=gap)
    V += r2
    np.clip(V, -v_max, v_max, out=V)
    X += V
    np.clip(X, 1.0, float(m), out=X)


def solve_ffd(problem: PlacementProblem) -> Placement:
    """First-fit decreasing by combined normalized demand.

    VMs are placed largest first onto the lowest-indexed server with room in
    both resources; when none fits, the VM lands on the server with maximum
    combined slack, which may leave the result infeasible.
    """
    demand = problem.demand
    order = np.argsort(-problem.vm_demand_measure, kind="stable")
    load = np.zeros((len(demand), problem.m))
    assign = np.empty(problem.n, dtype=np.int64)
    for v in order:
        fits = _fits(problem, load + demand[:, v, None]).all(axis=0)
        j = int(np.argmax(fits if fits.any() else _slack(problem, load)))
        assign[v] = j
        load[:, j] += demand[:, v]
    return Placement.from_row(assign)


@dataclass(frozen=True)
class BruteForceResult:
    """Exact scalar optimum plus one representative per non-dominated objective vector."""

    best: Placement
    objectives: ObjectiveVector
    scalar: float
    pareto: tuple[tuple[Placement, ObjectiveVector], ...]


def brute_force(problem: PlacementProblem, weights: ScalarWeights | None = None) -> BruteForceResult:
    """Exhaustively score every placement (no repair); exact scalar and Pareto optima.

    Refuses instances with more than ``BRUTE_FORCE_LIMIT`` placements.
    """
    weights = weights or ScalarWeights()
    m, n = problem.m, problem.n
    total = m**n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large for exhaustive search: {m}^{n} placements")

    radix = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    run = _Run(problem, weights, None, cap=None)
    chunk = 4096
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = (ids[:, None] // radix) % m
        keys = batch_objectives(problem, batch_loads(problem, rows))
        run.record(_Batch(rows + 1.0, rows, keys, batch_scalarize(keys, weights)))
    _, row, vector, scalar = run.best  # the scalar-best entry, feasible or not
    pareto = tuple((nest.decoded, nest.objectives) for nest in run.archive.nests())
    return BruteForceResult(Placement.from_row(row), vector, scalar, pareto)
