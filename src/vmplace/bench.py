"""Benchmark harness: derived seeds, per-run reports, CSV/JSON emission."""

from __future__ import annotations

import csv
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .baselines import GaConfig, PsoConfig, solve_ffd, solve_ga, solve_pso
from .cuckoo import SolveResult, SolverConfig, _check_search, solve
from .instance import GeneratorConfig, Placement, PlacementProblem, _checked_count, _write_json, generate_instance
from .objectives import ScalarWeights, evaluate

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_TABLE",
    "RAW_COLUMNS",
    "RunReport",
    "RunRecord",
    "SweepConfig",
    "derive_seed",
    "make_config",
    "placement_metrics",
    "run_algorithm",
    "run_single",
    "run_sweep",
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

_AGG_METRICS = ("utilization", "load_balance", "active_servers", "wall_time_ms")
# the SweepConfig fields that every instance's GeneratorConfig takes as they are
_GENERATOR_FIELDS = ("m", "cpu_range", "mem_range", "demand_floor_ratio", "alpha", "beta")


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
    feasible: bool
    wall_time_ms: float
    pop: int  # population size; 0 for an algorithm without one (ffd)


RAW_COLUMNS = tuple(f.name for f in fields(RunReport))


@dataclass(frozen=True)
class RunRecord:
    """Report plus the artifacts needed to re-check it independently."""

    report: RunReport
    placement: Placement
    instance_seed: int


@dataclass(frozen=True)
class SweepConfig:
    """The sweep grid pop_sizes x vm_counts x algorithms x reps, and its settings.

    Defaults reproduce the headline protocol at m=20.  No axis may repeat a value.
    """

    vm_counts: tuple[int, ...] = (20, 40, 60, 80, 100)
    m: int = 20
    reps: int = 10
    algorithms: tuple[str, ...] = ("lamocs", "ga", "pso")
    base_seed: int = 0
    pop_sizes: tuple[int, ...] = (100,)
    cycles: int = 500
    cpu_range: tuple[float, float] = GeneratorConfig.cpu_range
    mem_range: tuple[float, float] = GeneratorConfig.mem_range
    demand_floor_ratio: float = GeneratorConfig.demand_floor_ratio
    alpha: float = GeneratorConfig.alpha
    beta: float = GeneratorConfig.beta
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    jobs: int = 1

    def __post_init__(self) -> None:
        for axis in ("vm_counts", "pop_sizes", "algorithms"):
            kind = str if axis == "algorithms" else partial(_checked_count, axis)
            values = tuple(map(kind, getattr(self, axis)))
            object.__setattr__(self, axis, values)
            if not values:
                raise ValueError(f"{axis} must be non-empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{axis} repeats a value: {list(values)}")
        _checked_count("base_seed", self.base_seed)  # may be negative: derive_seed hashes it
        if _checked_count("m", self.m) < 1:
            raise ValueError("m must be at least 1")
        if any(n < self.m for n in self.vm_counts):
            raise ValueError("every vm_count must be at least the server count")
        if _checked_count("reps", self.reps) < 1:
            raise ValueError("reps must be at least 1")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; choose from {ALGORITHMS}")
        if any(pop < 2 for pop in self.pop_sizes):
            raise ValueError("every pop size must be at least 2")
        if _checked_count("cycles", self.cycles) < 1:
            raise ValueError("cycles must be at least 1")
        if _checked_count("jobs", self.jobs) < 1:
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
    settings = {name: getattr(cfg, name) for name in _GENERATOR_FIELDS}
    return generate_instance(GeneratorConfig(n=vm_count, seed=instance_seed, **settings)), instance_seed


def make_config(algorithm: str, cycles: int, **fields):
    """The algorithm's config with ``cycles`` in its own cycle-count field; None for ffd.

    ``fields`` are further config fields.  ffd ignores them, but its
    ``cycles``, ``pop_size`` and ``seed`` are checked as the population
    solvers check theirs.  Raises ValueError for an unknown algorithm or a
    value its config rejects.
    """
    if algorithm not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    entry = ALGORITHM_TABLE[algorithm]
    if entry.config is None:
        _check_search(SimpleNamespace(cycles=cycles, **fields), "cycles")
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


def placement_metrics(problem: PlacementProblem, placement: Placement) -> dict:
    """A placement's report metrics, recomputed from the placement alone.

    Keys: ``utilization``, ``load_balance``, ``active_servers`` and ``feasible``.
    """
    objs = evaluate(problem, placement)
    return {
        "utilization": objs.utilization,
        "load_balance": objs.load_balance,
        "active_servers": round(objs.active_fraction * problem.m),
        "feasible": objs.feasible,
    }


def run_single(cfg: SweepConfig, pop: int, vm_count: int, algorithm: str, rep: int) -> RunRecord:
    """One benchmark cell; the report's metrics come from re-evaluating the placement."""
    problem, instance_seed = _instance_for(cfg, vm_count, rep)
    solver_seed = derive_seed(cfg.base_seed, vm_count, algorithm, rep)
    config = make_config(algorithm, cfg.cycles, pop_size=pop, seed=solver_seed, weights=cfg.weights)
    placement, _, wall = run_algorithm(problem, algorithm, config)
    report = RunReport(
        algorithm=algorithm,
        n=vm_count,
        m=cfg.m,
        rep=rep,
        seed=solver_seed,
        **placement_metrics(problem, placement),
        wall_time_ms=wall * 1000.0,
        pop=0 if config is None else pop,
    )
    return RunRecord(report, placement, instance_seed)


def run_sweep(cfg: SweepConfig) -> list[RunRecord]:
    """All (pop, vm_count, algorithm, rep) cells, nested in that order.

    They run in a pool of ``min(jobs, cells)`` worker processes, or in this
    process when that is 1.  An algorithm without a population (ffd) runs
    at the first size only, at pop 0: every other size would repeat the
    same runs.
    """
    cells = [
        (pop, vm_count, algorithm, rep)
        for i, pop in enumerate(cfg.pop_sizes)
        for vm_count in cfg.vm_counts
        for algorithm in cfg.algorithms
        if i == 0 or ALGORITHM_TABLE[algorithm].config is not None
        for rep in range(cfg.reps)
    ]
    run = partial(run_single, cfg)
    columns = zip(*cells)
    jobs = min(cfg.jobs, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, *columns))
    return list(map(run, *columns))


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Mean/std (population) per (pop, n, algorithm) cell, preserving record order."""
    groups: dict[tuple, list[RunReport]] = {}
    for rec in records:
        r = rec.report
        groups.setdefault((r.pop, r.n, r.algorithm), []).append(r)
    rows = []
    for (pop, n, algorithm), members in groups.items():
        row: dict = {
            "algorithm": algorithm,
            "n": n,
            "pop": pop,
            "m": members[0].m,
            "runs": len(members),
            "feasible_rate": float(np.mean([r.feasible for r in members])),
        }
        for metric in _AGG_METRICS:
            values = np.array([getattr(r, metric) for r in members], dtype=np.float64)
            row[f"{metric}_mean"] = float(values.mean())
            row[f"{metric}_std"] = float(values.std())
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_raw_csv(records: list[RunRecord], path: str | Path) -> None:
    write_aggregate_csv([asdict(rec.report) for rec in records], path)


def write_aggregate_csv(rows: list[dict], path: str | Path) -> None:
    if not rows:
        raise ValueError("nothing to write")
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])


def write_raw_json(records: list[RunRecord], path: str | Path) -> None:
    _write_json({"runs": [asdict(rec.report) for rec in records]}, path)


def write_aggregate_json(rows: list[dict], path: str | Path) -> None:
    _write_json({"cells": rows}, path)


def write_metadata(cfg: SweepConfig, path: str | Path) -> None:
    """Sidecar with every knob needed to reproduce the sweep; no timestamps."""
    payload = asdict(cfg)
    del payload["jobs"]  # worker count: the sweep's rows do not depend on it
    payload["seed_formula"] = "blake2b64('{base_seed}|{vm_count}|{algorithm_id}|{rep}'), instances use algorithm_id='instance'"
    _write_json(payload, path)
