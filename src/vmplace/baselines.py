"""Baseline solvers: genetic algorithm, particle swarm, first-fit decreasing, brute force."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

# _evaluate_rows is not called here: the solvers evaluate through _Run.  The
# name stays bound because perfbench/tracing.py patches it in this module.
from .cuckoo import ParetoArchive, SolveResult, _Batch, _evaluate_rows, _offer_batch, _Run  # noqa: F401
from .instance import Placement, PlacementProblem
from .objectives import ObjectiveVector, ScalarWeights, batch_loads, batch_objectives, batch_scalarize

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


@dataclass(frozen=True)
class GaConfig:
    """Generational GA settings: tournament-2, single-point crossover, elitism of 1."""

    pop_size: int = 100
    generations: int = 500
    crossover_rate: float = 0.7
    mutation_rate: float = 0.05
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    archive_cap: int = 100

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.archive_cap < 1:
            raise ValueError("archive_cap must be at least 1")


@dataclass(frozen=True)
class PsoConfig:
    """Global-best PSO settings; ``v_max=None`` resolves to 0.5 * (m - 1)."""

    pop_size: int = 100
    iterations: int = 500
    inertia: float = 0.7
    c1: float = 1.5
    c2: float = 1.5
    v_max: float | None = None
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    archive_cap: int = 100

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.inertia < 0.0 or self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("inertia, c1 and c2 must be non-negative")
        if self.v_max is not None and self.v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if self.archive_cap < 1:
            raise ValueError("archive_cap must be at least 1")


def solve_ga(problem: PlacementProblem, config: GaConfig, trace: TextIO | None = None) -> SolveResult:
    """Generational GA over repaired assignments; deterministic for a fixed seed.

    Chromosomes store the repaired assignment itself, so repair improvements
    are inherited.  Each generation produces one child per tournament pair
    plus a single elite copy of the best individual.
    """
    run = _Run(problem, config, trace)
    m, n = problem.m, problem.n
    if m == 1:
        return run.single_server()

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    population = run.evaluate(rng.integers(0, m, (pop, n)) + 1.0)
    run.record(population)

    cols = np.arange(n)
    for generation in range(1, config.generations + 1):
        rows, scalars = population.rows, population.scalars
        elite = int(np.argmin(scalars))
        tours = rng.integers(0, pop, (pop - 1, 4))
        first = np.where(scalars[tours[:, 0]] <= scalars[tours[:, 1]], tours[:, 0], tours[:, 1])
        second = np.where(scalars[tours[:, 2]] <= scalars[tours[:, 3]], tours[:, 2], tours[:, 3])
        children = rows[first].copy()
        crossed = rng.random(pop - 1) < config.crossover_rate
        if n >= 2:
            points = rng.integers(1, n, pop - 1)
            take_second = crossed[:, None] & (cols[None, :] >= points[:, None])
            children[take_second] = rows[second][take_second]
        mutate = rng.random((pop - 1, n)) < config.mutation_rate
        resets = rng.integers(0, m, (pop - 1, n))
        children[mutate] = resets[mutate]

        offspring = run.evaluate(children + 1.0)
        population = _Batch(
            *(np.concatenate((col[elite : elite + 1], new)) for col, new in zip(population, offspring))
        )
        run.record(population, generation)

    return run.result(config.generations)


def solve_pso(problem: PlacementProblem, config: PsoConfig, trace: TextIO | None = None) -> SolveResult:
    """Global-best PSO over continuous positions; deterministic for a fixed seed.

    Velocities start at zero.  A particle's best position snaps repaired
    coordinates onto their repaired server index, so recorded attractors
    always decode to the placement that earned their score.
    """
    run = _Run(problem, config, trace)
    m, n = problem.m, problem.n
    if m == 1:
        return run.single_server()

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    v_max = config.v_max if config.v_max is not None else 0.5 * (m - 1)
    X = rng.uniform(1.0, float(m), (pop, n))
    V = np.zeros((pop, n))

    swarm = run.evaluate(X)
    run.record(swarm)
    pbest_X = swarm.positions.copy()
    pbest_scalars = swarm.scalars.copy()
    gbest = swarm.positions[int(np.argmin(swarm.scalars))].copy()
    gbest_scalar = float(swarm.scalars.min())

    for iteration in range(1, config.iterations + 1):
        r1 = rng.random((pop, n))
        r2 = rng.random((pop, n))
        V = config.inertia * V + config.c1 * r1 * (pbest_X - X) + config.c2 * r2 * (gbest - X)
        np.clip(V, -v_max, v_max, out=V)
        X = np.clip(X + V, 1.0, float(m))

        swarm = run.evaluate(X)
        improved = swarm.scalars < pbest_scalars
        pbest_X[improved] = swarm.positions[improved]
        pbest_scalars[improved] = swarm.scalars[improved]
        i = int(np.argmin(pbest_scalars))
        if pbest_scalars[i] < gbest_scalar:
            gbest = pbest_X[i].copy()
            gbest_scalar = float(pbest_scalars[i])
        run.record(swarm, iteration)

    return run.result(config.iterations)


def solve_ffd(problem: PlacementProblem) -> Placement:
    """First-fit decreasing by combined normalized demand.

    VMs are placed largest first onto the lowest-indexed server with room in
    both resources; when none fits, the VM lands on the server with maximum
    combined slack, which may leave the result infeasible.
    """
    m = problem.m
    order = np.argsort(-problem.vm_demand_measure, kind="stable")
    cpu_used = np.zeros(m)
    mem_used = np.zeros(m)
    assign = np.empty(problem.n, dtype=np.int64)
    for v in order:
        fits = (cpu_used + problem.vm_cpu[v] <= problem.server_cpu) & (
            mem_used + problem.vm_mem[v] <= problem.server_mem
        )
        if fits.any():
            j = int(np.argmax(fits))
        else:
            slack = (
                problem.alpha * (problem.server_cpu - cpu_used) / problem.mean_cpu
                + problem.beta * (problem.server_mem - mem_used) / problem.mean_mem
            )
            j = int(np.argmax(slack))
        assign[v] = j
        cpu_used[j] += problem.vm_cpu[v]
        mem_used[j] += problem.vm_mem[v]
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
        objs = batch_objectives(problem, *batch_loads(problem, rows))
        batch = _Batch(rows + 1.0, rows, *objs, batch_scalarize(objs, weights))
        i = int(np.argmin(batch.scalars))
        if batch.scalars[i] < best_scalar:
            best_scalar = float(batch.scalars[i])
            best_row = rows[i].copy()
            best_vector = batch.vector(i)
        # Uncapped, so the archive never thins and rejection only grows: the
        # rows rejected up front are exactly those offering would refuse.
        _offer_batch(archive, batch)

    pareto = tuple((nest.decoded, nest.objectives) for nest in archive.nests())
    best = Placement(tuple(int(v) + 1 for v in best_row))
    return BruteForceResult(best, best_vector, best_scalar, pareto)
