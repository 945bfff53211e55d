"""Objective evaluation: utilization, load balance, energy proxy, feasibility, dominance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .instance import Placement, PlacementProblem

__all__ = [
    "ObjectiveVector",
    "Violation",
    "ScalarWeights",
    "resource_waste",
    "check_feasible",
    "evaluate",
    "dominates",
    "scalarize",
]

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class ObjectiveVector:
    """Mean active utilization (max), load-balance std-dev (min), active fraction (min)."""

    utilization: float
    load_balance: float
    active_fraction: float
    feasible: bool


class Violation(NamedTuple):
    server: int  # 1-based
    resource: str  # "cpu" or "mem"
    excess: float


@dataclass(frozen=True)
class ScalarWeights:
    """Convex weights collapsing the three criteria into one minimized score."""

    w_util: float = 1.0 / 3.0
    w_lb: float = 1.0 / 3.0
    w_active: float = 1.0 / 3.0
    infeasibility_penalty: float = 10.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.w_util, self.w_lb, self.w_active, self.infeasibility_penalty))):
            raise ValueError("weights and infeasibility_penalty must be finite")
        if min(self.w_util, self.w_lb, self.w_active) < 0.0:
            raise ValueError("weights must be non-negative")
        if abs(self.w_util + self.w_lb + self.w_active - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        if self.infeasibility_penalty <= 0.0:
            raise ValueError("infeasibility_penalty must be positive")


class BatchObjectives(NamedTuple):
    """Objective columns for a batch of assignment rows (solver fast path)."""

    utilization: np.ndarray
    load_balance: np.ndarray
    active_fraction: np.ndarray
    feasible: np.ndarray


def _assign0(problem: PlacementProblem, placement: Placement) -> np.ndarray:
    placement.validate_for(problem)
    return np.asarray(placement.assign, dtype=np.int64) - 1


class LoadWork:
    """Buffers ``batch_loads`` reuses for up to ``size`` rows of one problem.

    They hold the flat bin index, the row offsets and the per-row tiles of
    the VM demands, so repeated calls allocate only their ``(k, m)`` outputs.
    """

    def __init__(self, problem: PlacementProblem, size: int) -> None:
        self.size = size
        self.flat = np.empty((size, problem.n), dtype=np.int64)
        self.offsets = np.arange(size)[:, None] * problem.m
        self.cpu = np.tile(problem.vm_cpu, (size, 1))
        self.mem = np.tile(problem.vm_mem, (size, 1))


def batch_loads(
    problem: PlacementProblem, rows: np.ndarray, *, work: LoadWork | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-server cpu/mem totals and VM counts for each 0-based assignment row.

    ``work`` supplies buffers for at least ``len(rows)`` rows; without it
    they are allocated for this call.
    """
    rows = np.atleast_2d(rows)
    k = rows.shape[0]
    if work is None:
        work = LoadWork(problem, k)
    flat = np.add(rows, work.offsets[:k], out=work.flat[:k]).ravel()
    m = problem.m
    size = k * m
    cpu_used = np.bincount(flat, weights=work.cpu[:k].ravel(), minlength=size)
    mem_used = np.bincount(flat, weights=work.mem[:k].ravel(), minlength=size)
    counts = np.bincount(flat, minlength=size)
    return cpu_used.reshape(k, m), mem_used.reshape(k, m), counts.reshape(k, m)


def batch_objectives(
    problem: PlacementProblem,
    cpu_used: np.ndarray,
    mem_used: np.ndarray,
    counts: np.ndarray,
) -> BatchObjectives:
    util = problem.alpha * cpu_used / problem.server_cpu + problem.beta * mem_used / problem.server_mem
    active = counts > 0
    active_n = active.sum(axis=1)
    util_mean = (util * active).sum(axis=1) / active_n
    dev = (util - util_mean[:, None]) * active
    load_balance = np.sqrt((dev * dev).sum(axis=1) / active_n)
    active_fraction = active_n / problem.m
    feasible = (cpu_used <= problem.server_cpu).all(axis=1) & (mem_used <= problem.server_mem).all(axis=1)
    return BatchObjectives(util_mean, load_balance, active_fraction, feasible)


def batch_scalarize(objs: BatchObjectives, weights: ScalarWeights) -> np.ndarray:
    base = (
        weights.w_util * (1.0 - objs.utilization)
        + weights.w_lb * objs.load_balance
        + weights.w_active * objs.active_fraction
    )
    return base + np.where(objs.feasible, 0.0, weights.infeasibility_penalty)


def resource_waste(problem: PlacementProblem, placement: Placement) -> float:
    """Mean unused-capacity share ``1 - utilization`` over the servers hosting a VM.

    Averages the per-server complements, which can differ from
    ``1 - evaluate(...).utilization`` in the last bits.
    """
    a0 = _assign0(problem, placement)
    cpu_used, mem_used, counts = batch_loads(problem, a0[None, :])
    util = problem.alpha * cpu_used[0] / problem.server_cpu + problem.beta * mem_used[0] / problem.server_mem
    return float(np.mean(1.0 - util[counts[0] > 0]))


def check_feasible(problem: PlacementProblem, placement: Placement) -> tuple[bool, list[Violation]]:
    """Capacity check per server and resource; boundary-exact sums are feasible."""
    a0 = _assign0(problem, placement)
    cpu_used, mem_used, _ = batch_loads(problem, a0[None, :])
    violations: list[Violation] = []
    for j in range(problem.m):
        if cpu_used[0, j] > problem.servers[j].cpu:
            violations.append(Violation(j + 1, "cpu", float(cpu_used[0, j] - problem.servers[j].cpu)))
        if mem_used[0, j] > problem.servers[j].mem:
            violations.append(Violation(j + 1, "mem", float(mem_used[0, j] - problem.servers[j].mem)))
    return (not violations, violations)


def evaluate(problem: PlacementProblem, placement: Placement) -> ObjectiveVector:
    """All three objectives plus feasibility for one placement (pure)."""
    a0 = _assign0(problem, placement)
    objs = batch_objectives(problem, *batch_loads(problem, a0[None, :]))
    return ObjectiveVector(
        float(objs.utilization[0]),
        float(objs.load_balance[0]),
        float(objs.active_fraction[0]),
        bool(objs.feasible[0]),
    )


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Pareto dominance; any feasible solution dominates any infeasible one."""
    if a.feasible != b.feasible:
        return a.feasible
    at_least = (
        a.utilization >= b.utilization
        and a.load_balance <= b.load_balance
        and a.active_fraction <= b.active_fraction
    )
    strictly = (
        a.utilization > b.utilization
        or a.load_balance < b.load_balance
        or a.active_fraction < b.active_fraction
    )
    return at_least and strictly


def scalarize(objs: ObjectiveVector, weights: ScalarWeights) -> float:
    """Weighted single score, lower is better; infeasibility adds a flat penalty."""
    base = (
        weights.w_util * (1.0 - objs.utilization)
        + weights.w_lb * objs.load_balance
        + weights.w_active * objs.active_fraction
    )
    return base + (0.0 if objs.feasible else weights.infeasibility_penalty)
