"""Baseline solvers: genetic algorithm, particle swarm, first-fit decreasing, brute force."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

# _evaluate_rows is not called here: the solvers evaluate through _Run.  The
# name stays bound because perfbench/tracing.py patches it in this module.
from .cuckoo import ParetoArchive, SolveResult, _Batch, _evaluate_rows, _Run  # noqa: F401
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
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")


@dataclass(frozen=True)
class PsoConfig:
    """Global-best PSO settings."""

    pop_size: int = 100
    iterations: int = 500
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


def solve_ga(problem: PlacementProblem, config: GaConfig, trace: TextIO | None = None) -> SolveResult:
    """Generational GA over repaired assignments; deterministic for a fixed seed.

    Chromosomes store the repaired assignment itself, so repair improvements
    are inherited.  Each generation produces one child per tournament pair
    plus a single elite copy of the best individual.
    """
    run = _Run(problem, config.weights, trace)
    m, n = problem.m, problem.n
    if m == 1:
        return run.single_server()

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    population = run.evaluate_rows(rng.integers(0, m, (pop, n))).copy()
    run.record(population)

    # Per-solve buffers: the children, the second parents' rows, the
    # mutation draws and one (pop - 1, n) mask.
    children = np.empty((pop - 1, n), dtype=np.int64)
    mates = np.empty_like(children)
    draws = np.empty(children.shape)
    mask = np.empty(children.shape, dtype=bool)
    cols = np.arange(n)
    for generation in range(1, config.generations + 1):
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
        np.less(rng.random(out=draws), GA_MUTATION_RATE, out=mask)
        np.copyto(children, rng.integers(0, m, (pop - 1, n)), where=mask)

        # the elite moves to row 0 and the scored children fill the rest
        offspring = run.evaluate_rows(children)
        population.put(0, population, elite)
        population.put(slice(1, None), offspring, slice(None))
        run.record(population, generation)

    return run.result(config.generations)


def solve_pso(problem: PlacementProblem, config: PsoConfig, trace: TextIO | None = None) -> SolveResult:
    """Global-best PSO over continuous positions; deterministic for a fixed seed.

    Velocities start at zero, and each coordinate is clamped to
    ``0.5 * (m - 1)``.  A particle's best position snaps repaired
    coordinates onto their repaired server index, so recorded attractors
    always decode to the placement that earned their score.
    """
    run = _Run(problem, config.weights, trace)
    m, n = problem.m, problem.n
    if m == 1:
        return run.single_server()

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    v_max = 0.5 * (m - 1)
    X = rng.uniform(1.0, float(m), (pop, n))
    V = np.zeros((pop, n))

    swarm = run.evaluate(X)
    run.record(swarm)
    pbest_X = swarm.positions.copy()
    pbest_scalars = swarm.scalars.copy()

    r1, r2, gap = np.empty((pop, n)), np.empty((pop, n)), np.empty((pop, n))
    for iteration in range(1, config.iterations + 1):
        rng.random(out=r1)
        rng.random(out=r2)
        _pso_move(X, V, pbest_X, run.best[0], r1, r2, gap, v_max, m)

        swarm = run.evaluate(X)
        improved = swarm.scalars < pbest_scalars
        np.copyto(pbest_X, swarm.positions, where=improved[:, None])
        pbest_scalars[improved] = swarm.scalars[improved]
        run.record(swarm, iteration)

    return run.result(config.iterations)


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
    return Placement(tuple(int(v) + 1 for v in assign))


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
    archive = ParetoArchive(cap=None)
    best_scalar = math.inf
    best_row: np.ndarray | None = None
    best_vector: ObjectiveVector | None = None

    chunk = 4096
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = (ids[:, None] // radix) % m
        objs = batch_objectives(problem, batch_loads(problem, rows))
        batch = _Batch(rows + 1.0, rows, *objs, batch_scalarize(objs, weights))
        i = int(np.argmin(batch.scalars))
        if batch.scalars[i] < best_scalar:
            best_scalar = float(batch.scalars[i])
            best_row = rows[i].copy()
            best_vector = batch.vector(i)
        archive.offer(batch)

    pareto = tuple((nest.decoded, nest.objectives) for nest in archive.nests())
    best = Placement(tuple(int(v) + 1 for v in best_row))
    return BruteForceResult(best, best_vector, best_scalar, pareto)
