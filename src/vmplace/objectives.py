"""Objective evaluation: utilization, load balance, energy proxy, feasibility, dominance."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
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


def _fits(problem: PlacementProblem, cpu: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """The capacity test of ``(..., m)`` loads: ``(2, ...)`` bools, cpu then mem; a load at capacity fits."""
    return np.array((cpu <= problem.server_cpu, mem <= problem.server_mem))


def _utilization(problem: PlacementProblem, cpu: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """Per-server utilization of ``(..., m)`` cpu and mem loads, weighted by alpha and beta."""
    return problem.alpha * cpu / problem.server_cpu + problem.beta * mem / problem.server_mem


def _slack(problem: PlacementProblem, cpu: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """Combined free capacity per server, normalized by mean capacity; a moved VM goes where it is largest."""
    return (
        problem.alpha * (problem.server_cpu - cpu) / problem.mean_cpu
        + problem.beta * (problem.server_mem - mem) / problem.mean_mem
    )


def batch_objectives(
    problem: PlacementProblem,
    cpu_used: np.ndarray,
    mem_used: np.ndarray,
    counts: np.ndarray,
) -> BatchObjectives:
    util = _utilization(problem, cpu_used, mem_used)
    active = counts > 0
    active_n = active.sum(axis=1)
    util_mean = (util * active).sum(axis=1) / active_n
    dev = (util - util_mean[:, None]) * active
    load_balance = np.sqrt((dev * dev).sum(axis=1) / active_n)
    active_fraction = active_n / problem.m
    feasible = _fits(problem, cpu_used, mem_used).all(axis=(0, 2))
    return BatchObjectives(util_mean, load_balance, active_fraction, feasible)


def batch_scalarize(objs: BatchObjectives | ObjectiveVector, weights: ScalarWeights) -> np.ndarray:
    """Weighted score per row, lower is better; each infeasible row adds a flat penalty."""
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
    util = _utilization(problem, cpu_used[0], mem_used[0])
    return float(np.mean(1.0 - util[counts[0] > 0]))


def check_feasible(problem: PlacementProblem, placement: Placement) -> tuple[bool, list[Violation]]:
    """Capacity check per server and resource; boundary-exact sums are feasible.

    Violations come server by server, cpu before mem, each with its excess load.
    """
    a0 = _assign0(problem, placement)
    cpu_used, mem_used, _ = batch_loads(problem, a0[None, :])
    cpu, mem = cpu_used[0], mem_used[0]
    excess = (cpu - problem.server_cpu, mem - problem.server_mem)
    servers, resources = np.nonzero(~_fits(problem, cpu, mem).T)
    violations = [
        Violation(j + 1, ("cpu", "mem")[r], float(excess[r][j])) for j, r in zip(servers.tolist(), resources.tolist())
    ]
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


def _weakly_dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len a, len b)`` matrix: True where key row ``a[i]`` beats or equals ``b[j]``.

    Key rows are (utilization, load balance, active fraction, feasible).
    Feasible beats infeasible; within a class, a row wins when it is at least
    as high on utilization and at most as high on the other two.
    """
    fa, fb = a[:, 3, None], b[None, :, 3]
    ge = (a[:, 0, None] >= b[None, :, 0]) & (a[:, 1, None] <= b[None, :, 1]) & (a[:, 2, None] <= b[None, :, 2])
    return (fa > fb) | ((fa == fb) & ge)


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Pareto dominance, the strict form of ``_weakly_dominates``; feasible dominates infeasible."""
    keys = np.array((astuple(a), astuple(b)), dtype=np.float64)
    weak = _weakly_dominates(keys, keys)
    return bool(weak[0, 1] and not weak[1, 0])


def scalarize(objs: ObjectiveVector, weights: ScalarWeights) -> float:
    """Weighted single score, lower is better; infeasibility adds a flat penalty."""
    return float(batch_scalarize(objs, weights))
