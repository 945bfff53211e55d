"""Benchmark harness: derived seeds, per-run reports, CSV/JSON emission."""

from __future__ import annotations

import csv
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .baselines import GaConfig, PsoConfig, solve_ffd, solve_ga, solve_pso
from .cuckoo import SolveResult, SolverConfig, solve
from .instance import GeneratorConfig, Placement, PlacementProblem, generate_instance, _write_json
from .objectives import ScalarWeights, eval_resource_waste, evaluate, server_loads

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_TABLE",
    "RAW_COLUMNS",
    "RunReport",
    "RunRecord",
    "SweepConfig",
    "derive_seed",
    "make_config",
    "run_algorithm",
    "run_single",
    "run_sweep",
    "run_pop_sweep",
    "aggregate",
    "write_raw_csv",
    "write_aggregate_csv",
    "write_raw_json",
    "write_aggregate_json",
    "write_metadata",
]


class AlgorithmEntry(NamedTuple):
    """How to run one algorithm: its solve function, config class and cycle-count field."""

    solve: Callable
    config: type | None
    cycles_field: str | None


# FFD is deterministic and population-free: it takes the problem alone.
ALGORITHM_TABLE = {
    "lamocs": AlgorithmEntry(solve, SolverConfig, "max_cycles"),
    "ga": AlgorithmEntry(solve_ga, GaConfig, "generations"),
    "pso": AlgorithmEntry(solve_pso, PsoConfig, "iterations"),
    "ffd": AlgorithmEntry(solve_ffd, None, None),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)

RAW_COLUMNS = (
    "algorithm",
    "n",
    "m",
    "rep",
    "seed",
    "utilization",
    "load_balance",
    "active_servers",
    "resource_waste",
    "feasible",
    "wall_time_ms",
)

_AGG_METRICS = ("utilization", "load_balance", "active_servers", "resource_waste", "wall_time_ms")


@dataclass(frozen=True)
class RunReport:
    """One benchmark run; metric fields are recomputed from the returned placement."""

    algorithm: str
    n: int
    m: int
    rep: int
    seed: int
    utilization: float
    load_balance: float
    active_servers: int
    resource_waste: float
    feasible: bool
    wall_time_ms: float


@dataclass(frozen=True)
class RunRecord:
    """Report plus the artifacts needed to re-check it independently."""

    report: RunReport
    placement: Placement
    instance_seed: int
    pop: int


@dataclass(frozen=True)
class SweepConfig:
    """Benchmark sweep settings; defaults reproduce the headline protocol at m=20."""

    vm_counts: tuple[int, ...] = (20, 40, 60, 80, 100)
    m: int = 20
    reps: int = 10
    algorithms: tuple[str, ...] = ("lamocs", "ga", "pso")
    base_seed: int = 0
    pop_size: int = 100
    cycles: int = 500
    cpu_range: tuple[float, float] = (10.0, 30.0)
    mem_range: tuple[float, float] = (16.0, 64.0)
    demand_floor_ratio: float = 0.9
    alpha: float = 0.5
    beta: float = 0.5
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    jobs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "vm_counts", tuple(int(v) for v in self.vm_counts))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.vm_counts:
            raise ValueError("vm_counts must be non-empty")
        if any(n < self.m for n in self.vm_counts):
            raise ValueError("every vm_count must be at least the server count")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; choose from {ALGORITHMS}")
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def derive_seed(base_seed: int, vm_count: int, algorithm_id: str, rep: int) -> int:
    """Stable 64-bit seed: blake2b-8 digest of ``"{base}|{n}|{algorithm}|{rep}"``.

    Instances use ``algorithm_id="instance"`` so every solver sees the same
    instance for a given (vm_count, rep) cell.
    """
    key = f"{base_seed}|{vm_count}|{algorithm_id}|{rep}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _instance_for(cfg: SweepConfig, vm_count: int, rep: int) -> tuple[PlacementProblem, int]:
    instance_seed = derive_seed(cfg.base_seed, vm_count, "instance", rep)
    problem = generate_instance(
        GeneratorConfig(
            m=cfg.m,
            n=vm_count,
            cpu_range=cfg.cpu_range,
            mem_range=cfg.mem_range,
            demand_floor_ratio=cfg.demand_floor_ratio,
            seed=instance_seed,
            alpha=cfg.alpha,
            beta=cfg.beta,
        )
    )
    return problem, instance_seed


def make_config(algorithm: str, cycles: int, **fields):
    """The algorithm's config with ``cycles`` in its own cycle-count field; None for ffd.

    ``fields`` are further config fields; ffd ignores them.  Raises ValueError
    for an unknown algorithm or a value its config rejects.
    """
    if algorithm not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    entry = ALGORITHM_TABLE[algorithm]
    if entry.config is None:
        return None
    return entry.config(**{entry.cycles_field: cycles}, **fields)


def run_algorithm(
    problem: PlacementProblem, algorithm: str, config, trace: TextIO | None = None
) -> tuple[Placement, SolveResult | None, float]:
    """Run with a config from ``make_config``: best placement, full result (None for ffd), wall seconds."""
    solver = ALGORITHM_TABLE[algorithm].solve
    if config is None:
        t0 = time.perf_counter()
        placement = solver(problem)
        return placement, None, time.perf_counter() - t0
    result = solver(problem, config, trace)
    return result.best.decoded, result, result.wall_time


def run_single(cfg: SweepConfig, vm_count: int, algorithm: str, rep: int, pop_size: int | None = None) -> RunRecord:
    """One benchmark cell; the report's metrics come from re-evaluating the placement."""
    pop = cfg.pop_size if pop_size is None else pop_size
    problem, instance_seed = _instance_for(cfg, vm_count, rep)
    solver_seed = derive_seed(cfg.base_seed, vm_count, algorithm, rep)
    config = make_config(algorithm, cfg.cycles, pop_size=pop, seed=solver_seed, weights=cfg.weights)
    placement, _, wall = run_algorithm(problem, algorithm, config)
    objs = evaluate(problem, placement)
    loads = server_loads(problem, placement)
    report = RunReport(
        algorithm=algorithm,
        n=vm_count,
        m=cfg.m,
        rep=rep,
        seed=solver_seed,
        utilization=objs.utilization,
        load_balance=objs.load_balance,
        active_servers=sum(load.active for load in loads),
        resource_waste=eval_resource_waste(loads),
        feasible=objs.feasible,
        wall_time_ms=wall * 1000.0,
    )
    return RunRecord(report, placement, instance_seed, 0 if config is None else pop)


def _run_cell(args: tuple) -> RunRecord:
    return run_single(*args)


def _run_cells(cfg: SweepConfig, cells: list[tuple]) -> list[RunRecord]:
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(_run_cell, cells))
    return [run_single(*cell) for cell in cells]


def run_sweep(cfg: SweepConfig) -> list[RunRecord]:
    """All (vm_count, algorithm, rep) cells in deterministic order."""
    cells = [
        (cfg, vm_count, algorithm, rep)
        for vm_count in cfg.vm_counts
        for algorithm in cfg.algorithms
        for rep in range(cfg.reps)
    ]
    return _run_cells(cfg, cells)


def run_pop_sweep(cfg: SweepConfig, pop_sizes: tuple[int, ...], vm_count: int = 100) -> list[RunRecord]:
    """Population-size sweep at a fixed VM count."""
    if not pop_sizes:
        raise ValueError("pop_sizes must be non-empty")
    cells = [
        (cfg, vm_count, algorithm, rep, pop)
        for pop in pop_sizes
        for algorithm in cfg.algorithms
        for rep in range(cfg.reps)
    ]
    return _run_cells(cfg, cells)


def aggregate(records: list[RunRecord], by: str = "n") -> list[dict]:
    """Mean/std (population) per (group, algorithm) cell, preserving record order.

    ``by`` selects the grouping column: ``"n"`` for VM-count sweeps, ``"pop"``
    for population sweeps.
    """
    if by not in ("n", "pop"):
        raise ValueError("by must be 'n' or 'pop'")
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.pop if by == "pop" else rec.report.n, rec.report.algorithm)
        groups.setdefault(key, []).append(rec)
    rows = []
    for (group_value, algorithm), members in groups.items():
        row: dict = {
            "algorithm": algorithm,
            by: group_value,
            "m": members[0].report.m,
            "runs": len(members),
            "feasible_rate": float(np.mean([r.report.feasible for r in members])),
        }
        if by == "pop":
            row["n"] = members[0].report.n
        for metric in _AGG_METRICS:
            values = np.array([getattr(r.report, metric) for r in members], dtype=np.float64)
            row[f"{metric}_mean"] = float(values.mean())
            row[f"{metric}_std"] = float(values.std())
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_raw_csv(records: list[RunRecord], path: str | Path, include_pop: bool = False) -> None:
    columns = RAW_COLUMNS + ("pop",) if include_pop else RAW_COLUMNS
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            row = [getattr(rec.report, col) for col in RAW_COLUMNS]
            if include_pop:
                row.append(rec.pop)
            writer.writerow([_format_cell(v) for v in row])


def write_aggregate_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("nothing to write")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])


def write_raw_json(records: list[RunRecord], path: str | Path, include_pop: bool = False) -> None:
    payload = []
    for rec in records:
        entry = {col: getattr(rec.report, col) for col in RAW_COLUMNS}
        if include_pop:
            entry["pop"] = rec.pop
        payload.append(entry)
    _write_json({"runs": payload}, path)


def write_aggregate_json(rows: list[dict], path: str | Path) -> None:
    _write_json({"cells": rows}, path)


def write_metadata(cfg: SweepConfig, path: str | Path, extra: dict | None = None) -> None:
    """Sidecar with every knob needed to reproduce the sweep; no timestamps."""
    payload = {
        "vm_counts": list(cfg.vm_counts),
        "m": cfg.m,
        "reps": cfg.reps,
        "algorithms": list(cfg.algorithms),
        "base_seed": cfg.base_seed,
        "pop_size": cfg.pop_size,
        "cycles": cfg.cycles,
        "cpu_range": list(cfg.cpu_range),
        "mem_range": list(cfg.mem_range),
        "demand_floor_ratio": cfg.demand_floor_ratio,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "weights": {
            "w_util": cfg.weights.w_util,
            "w_lb": cfg.weights.w_lb,
            "w_active": cfg.weights.w_active,
            "infeasibility_penalty": cfg.weights.infeasibility_penalty,
        },
        "seed_formula": "blake2b64('{base_seed}|{vm_count}|{algorithm_id}|{rep}'), instances use algorithm_id='instance'",
    }
    if extra:
        payload.update(extra)
    _write_json(payload, path)
