"""Objective evaluation: utilization, load balance, energy proxy, feasibility, dominance."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .instance import RESOURCES, Placement, PlacementProblem

__all__ = [
    "ObjectiveVector",
    "Violation",
    "ScalarWeights",
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


def _assign0(problem: PlacementProblem, placement: Placement) -> np.ndarray:
    """The 0-based row of ``placement``, checked against ``problem``; ``Placement.from_row`` inverts it."""
    placement.validate_for(problem)
    return np.asarray(placement.assign, dtype=np.int64) - 1


class LoadWork:
    """Buffers ``batch_loads`` reuses for up to ``size`` rows of one problem.

    They hold the flat bin index, the row offsets and the per-row tiles of
    each resource's demands and of ones (the VM count), so repeated calls
    allocate only their ``(3, k, m)`` output.
    """

    def __init__(self, problem: PlacementProblem, size: int) -> None:
        self.size = size
        self.flat = np.empty((size, problem.n), dtype=np.int64)
        self.offsets = np.arange(size)[:, None] * problem.m
        self.weights = np.ones((len(problem.demand) + 1, size, problem.n))
        self.weights[:-1] = problem.demand[:, None, :]


def batch_loads(problem: PlacementProblem, rows: np.ndarray, *, work: LoadWork | None = None) -> np.ndarray:
    """Per-server totals for each 0-based assignment row, as one ``(3, k, m)`` array.

    ``loads[:2]`` is the stacked cpu and mem load the capacity rules take, and
    ``loads[2]`` the VM count, as floats.  The result unpacks as
    ``cpu, mem, counts``, which the benchmark's tracer relies on.  ``work``
    supplies buffers for at least ``len(rows)`` rows; without it they are
    allocated for this call.
    """
    rows = np.atleast_2d(rows)
    k = rows.shape[0]
    if work is None:
        work = LoadWork(problem, k)
    flat = np.add(rows, work.offsets[:k], out=work.flat[:k]).ravel()
    size = k * problem.m
    # one bincount per row of weights: one over a stacked index costs more to build
    loads = np.empty((len(work.weights), size))
    for out, weights in zip(loads, work.weights):
        out[:] = np.bincount(flat, weights=weights[:k].ravel(), minlength=size)
    return loads.reshape(len(loads), k, problem.m)


# ``_ALONG[i]`` indexes a per-resource array with ``i`` new axes after the
# resource axis: ``[:, None]`` fits a ``(2, m)`` capacity to a ``(2, k, m)`` load.
_ALONG = tuple((slice(None),) + (None,) * i for i in range(3))


def _along(values: np.ndarray, load: np.ndarray) -> np.ndarray:
    """A per-resource ``(2,)`` or ``(2, m)`` problem array, shaped to broadcast against ``load``."""
    return values[_ALONG[load.ndim - values.ndim]]


def _fits(problem: PlacementProblem, load: np.ndarray) -> np.ndarray:
    """The capacity test of a stacked ``(2, ..., m)`` load, per resource; a load at capacity fits."""
    return load <= _along(problem.capacity, load)


def _utilization(problem: PlacementProblem, load: np.ndarray) -> np.ndarray:
    """Per-server utilization of a stacked ``(2, ..., m)`` load, each resource weighted."""
    return (_along(problem.weight, load) * load / _along(problem.capacity, load)).sum(axis=0)


def _slack(problem: PlacementProblem, load: np.ndarray) -> np.ndarray:
    """Combined free capacity per server, normalized by mean capacity; a moved VM goes where it is largest."""
    free = _along(problem.capacity, load) - load
    free *= _along(problem.weight, load)
    free /= _along(problem.mean_capacity, load)
    return free.sum(axis=0)


def batch_objectives(problem: PlacementProblem, loads: np.ndarray) -> np.ndarray:
    """``(k, 4)`` key rows of the rows whose ``batch_loads`` result is ``loads``.

    A key row is (utilization, load balance, active fraction, feasible), with
    feasible as 1.0 or 0.0: the one layout that scoring, batches, the archive
    and the dominance kernel share.
    """
    load, counts = loads[:2], loads[2]
    util = _utilization(problem, load)
    active = counts > 0
    active_n = active.sum(axis=1)
    util_mean = (util * active).sum(axis=1) / active_n
    dev = (util - util_mean[:, None]) * active
    load_balance = np.sqrt((dev * dev).sum(axis=1) / active_n)
    active_fraction = active_n / problem.m
    feasible = _fits(problem, load).all(axis=(0, 2))
    return np.column_stack((util_mean, load_balance, active_fraction, feasible))


def _vector(key: np.ndarray) -> ObjectiveVector:
    """The ``ObjectiveVector`` of one key row."""
    utilization, load_balance, active_fraction, feasible = key.tolist()
    return ObjectiveVector(utilization, load_balance, active_fraction, bool(feasible))


def batch_scalarize(keys: np.ndarray | tuple, weights: ScalarWeights) -> np.ndarray:
    """Weighted score per key row, lower is better; each infeasible row adds a flat penalty."""
    utilization, load_balance, active_fraction, feasible = np.asarray(keys, dtype=np.float64).T
    base = weights.w_util * (1.0 - utilization) + weights.w_lb * load_balance + weights.w_active * active_fraction
    return base + np.where(feasible, 0.0, weights.infeasibility_penalty)


def check_feasible(problem: PlacementProblem, placement: Placement) -> tuple[bool, list[Violation]]:
    """Capacity check per server and resource; boundary-exact sums are feasible.

    Violations come server by server, cpu before mem, each with its excess load.
    """
    load = batch_loads(problem, _assign0(problem, placement)[None, :])[:2, 0]
    excess = load - problem.capacity
    servers, resources = np.nonzero(~_fits(problem, load).T)
    violations = [
        Violation(j + 1, RESOURCES[r], float(excess[r, j])) for j, r in zip(servers.tolist(), resources.tolist())
    ]
    return (not violations, violations)


def evaluate(problem: PlacementProblem, placement: Placement) -> ObjectiveVector:
    """All three objectives plus feasibility for one placement (pure)."""
    return _vector(batch_objectives(problem, batch_loads(problem, _assign0(problem, placement)[None, :]))[0])


def _weakly_dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len a, len b)`` matrix: True where key row ``a[i]`` beats or equals ``b[j]``.

    Key rows are as ``batch_objectives`` returns them.  Feasible beats
    infeasible; within a class, a row wins when it is at least as high on
    utilization and at most as high on the other two.
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
    return float(batch_scalarize(astuple(objs), weights))
