"""Problem data model, synthetic instance generation, and JSON I/O."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TextIO

import numpy as np

__all__ = [
    "ResourceVector",
    "PlacementProblem",
    "Placement",
    "GeneratorConfig",
    "GeneratorError",
    "generate_instance",
    "total_capacity",
    "read_instance",
    "write_instance",
    "read_placement",
    "write_placement",
]

_WEIGHT_TOL = 1e-9
# The resources every server offers and every VM asks for, in stacked-array row order.
RESOURCES = ("cpu", "mem")


class GeneratorError(RuntimeError):
    """Raised when a generator config cannot satisfy its demand constraints."""


@dataclass(frozen=True)
class ResourceVector:
    """A (cpu, mem) pair: capacities for servers, demands for VMs."""

    cpu: float
    mem: float

    def __post_init__(self) -> None:
        for name in RESOURCES:
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class PlacementProblem:
    """Immutable placement instance: server capacities, VM demands, resource weights.

    ``alpha`` weighs cpu and ``beta`` weighs memory in every utilization
    figure.  They must sum to 1 so a feasible server's utilization stays in
    [0, 1].  Server capacities and VM demands must be strictly positive in
    both resources: a zero capacity would make every utilization NaN.
    """

    servers: tuple[ResourceVector, ...]
    vms: tuple[ResourceVector, ...]
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "servers", tuple(self.servers))
        object.__setattr__(self, "vms", tuple(self.vms))
        if not self.servers:
            raise ValueError("need at least one server")
        if not self.vms:
            raise ValueError("need at least one VM")
        _check_weights(self.alpha, self.beta)
        for what, vectors in (("server capacities", self.servers), ("VM demands", self.vms)):
            if any(v.cpu <= 0.0 or v.mem <= 0.0 for v in vectors):
                raise ValueError(f"{what} must be strictly positive in both resources")

    @property
    def m(self) -> int:
        return len(self.servers)

    @property
    def n(self) -> int:
        return len(self.vms)

    # Read-only arrays, built on first use and cached because solvers hit them
    # in tight loops.  The per-resource views are the public and I/O face.

    @cached_property
    def capacity(self) -> np.ndarray:
        """Server capacities, ``(2, m)``."""
        return _frozen_array([[getattr(s, r) for s in self.servers] for r in RESOURCES])

    @cached_property
    def demand(self) -> np.ndarray:
        """VM demands, ``(2, n)``."""
        return _frozen_array([[getattr(v, r) for v in self.vms] for r in RESOURCES])

    @cached_property
    def weight(self) -> np.ndarray:
        """Resource weights ``(alpha, beta)``."""
        return _frozen_array((self.alpha, self.beta))

    @cached_property
    def mean_capacity(self) -> np.ndarray:
        """Mean server capacity per resource, ``(2,)``."""
        return _frozen_array(self.capacity.mean(axis=1))

    @cached_property
    def server_cpu(self) -> np.ndarray:
        return self.capacity[0]

    @cached_property
    def server_mem(self) -> np.ndarray:
        return self.capacity[1]

    @cached_property
    def vm_cpu(self) -> np.ndarray:
        return self.demand[0]

    @cached_property
    def vm_mem(self) -> np.ndarray:
        return self.demand[1]

    @cached_property
    def vm_demand_measure(self) -> np.ndarray:
        """Per-VM demand combined across resources, normalized by mean capacity."""
        return _frozen_array((self.weight[:, None] * self.demand / self.mean_capacity[:, None]).sum(axis=0))


def _frozen_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Placement:
    """Assignment vector; entry i is the 1-based index of the server hosting VM i."""

    assign: tuple[int, ...]

    def __post_init__(self) -> None:
        assign = tuple(operator.index(s) for s in self.assign)
        object.__setattr__(self, "assign", assign)
        if not assign:
            raise ValueError("empty assignment")
        if min(assign) < 1:
            raise ValueError("server indices are 1-based")

    def __len__(self) -> int:
        return len(self.assign)

    def validate_for(self, problem: PlacementProblem) -> None:
        """Raise ValueError unless this assignment fits the given problem."""
        if len(self.assign) != problem.n:
            raise ValueError(f"placement covers {len(self.assign)} VMs, problem has {problem.n}")
        if max(self.assign) > problem.m:
            raise ValueError(f"server index {max(self.assign)} out of range 1..{problem.m}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for the synthetic near-saturation instance generator."""

    m: int
    n: int
    cpu_range: tuple[float, float] = (10.0, 30.0)
    mem_range: tuple[float, float] = (16.0, 64.0)
    demand_floor_ratio: float = 0.9
    seed: int = 0
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "cpu_range", _checked_range("cpu_range", self.cpu_range))
        object.__setattr__(self, "mem_range", _checked_range("mem_range", self.mem_range))
        if self.m < 1:
            raise ValueError("need at least one server")
        if self.n < self.m:
            raise ValueError("need at least as many VMs as servers (n >= m)")
        if not 0.0 < self.demand_floor_ratio < 1.0:
            raise ValueError("demand_floor_ratio must lie in (0, 1)")
        _check_weights(self.alpha, self.beta)


def _check_weights(alpha: float, beta: float) -> None:
    """Raise unless alpha and beta lie in [0, 1] (so neither is NaN or infinite) and sum to 1."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("alpha and beta must lie in [0, 1]")
    if abs(alpha + beta - 1.0) > _WEIGHT_TOL:
        raise ValueError("alpha + beta must equal 1")


def _checked_range(name: str, rng: tuple[float, float]) -> tuple[float, float]:
    lo, hi = (float(v) for v in rng)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo <= hi:
        raise ValueError(f"{name} must satisfy 0 < lo <= hi, got {rng!r}")
    return (lo, hi)


_DEMAND_CAP_FACTOR = 0.99
_MAX_RESCALE_ROUNDS = 100


def generate_instance(cfg: GeneratorConfig) -> PlacementProblem:
    """Draw a random instance whose VM demands nearly saturate the servers.

    Server capacities are uniform within the configured ranges.  VM demands
    are drawn per resource below ``0.99 *`` the mean server capacity, then the
    pool is rescaled (re-clamping any demand pushed over the cap and spreading
    the clamped excess evenly over the demands below it) until the total
    reaches ``demand_floor_ratio`` of total capacity in both resources.

    Deterministic for a fixed seed.  Raises GeneratorError when the rescale
    loop cannot satisfy the floor below the per-VM cap.
    """
    rng = np.random.default_rng(cfg.seed)
    capacity = [rng.uniform(lo, hi, cfg.m) for lo, hi in (cfg.cpu_range, cfg.mem_range)]
    demand = [_draw_demands(rng, cfg.n, cap, cfg.demand_floor_ratio) for cap in capacity]
    servers, vms = (tuple(map(ResourceVector, *values)) for values in (capacity, demand))
    return PlacementProblem(servers, vms, cfg.alpha, cfg.beta)


def _draw_demands(rng: np.random.Generator, n: int, capacities: np.ndarray, floor_ratio: float) -> np.ndarray:
    cap = _DEMAND_CAP_FACTOR * capacities.mean()
    target = floor_ratio * capacities.sum()
    demands = cap * (1.0 - rng.random(n))  # uniform in (0, cap]
    for _ in range(_MAX_RESCALE_ROUNDS):
        total = demands.sum()
        if total >= target and demands.max() <= cap:
            return demands
        if total < target:
            demands = demands * (target / total)
        over = demands > cap
        if over.any():
            # a demand already at the cap takes no share of the excess, or
            # two clamped groups hand it back and forth without settling
            under = demands < cap
            if not under.any():
                break
            excess = float((demands[over] - cap).sum())
            demands = demands.copy()
            demands[over] = cap
            demands[under] += excess / under.sum()
    raise GeneratorError(
        "cannot reach the demand floor with per-VM demands capped below mean capacity"
    )


def total_capacity(problem: PlacementProblem) -> ResourceVector:
    """Sum of server capacities across the fleet."""
    return ResourceVector(*problem.capacity.sum(axis=1))


def write_instance(problem: PlacementProblem, path: str | Path) -> None:
    payload = {
        "servers": [{"cpu": s.cpu, "mem": s.mem} for s in problem.servers],
        "vms": [{"cpu": v.cpu, "mem": v.mem} for v in problem.vms],
        "alpha": problem.alpha,
        "beta": problem.beta,
    }
    _write_json(payload, path)


def read_instance(path: str | Path) -> PlacementProblem:
    """Parse an instance file; raises ValueError on malformed input."""
    payload = _read_json(path)
    try:
        servers = tuple(ResourceVector(s["cpu"], s["mem"]) for s in payload["servers"])
        vms = tuple(ResourceVector(v["cpu"], v["mem"]) for v in payload["vms"])
        alpha = float(payload.get("alpha", 0.5))
        beta = float(payload.get("beta", 0.5))
        return PlacementProblem(servers, vms, alpha, beta)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc!r}") from exc


def write_placement(placement: Placement, dest: str | Path | TextIO) -> None:
    """Write the placement JSON to a path or to an open text file."""
    _write_json({"assign": list(placement.assign)}, dest)


def read_placement(path: str | Path) -> Placement:
    """Parse a placement file; raises ValueError on malformed input."""
    payload = _read_json(path)
    try:
        return Placement(tuple(payload["assign"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed placement file {path}: {exc!r}") from exc


def _write_json(payload: dict, dest: str | Path | TextIO) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def _read_json(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"malformed file {path}: expected a JSON object")
    return payload
