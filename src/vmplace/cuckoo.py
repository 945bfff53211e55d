"""Multi-objective cuckoo search over VM placements, guided by learning automata."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .automata import AutomatonBank, init_bank, sample_assignments, update_from_population
from .instance import Placement, PlacementProblem
from .objectives import (
    BatchObjectives,
    ObjectiveVector,
    ScalarWeights,
    batch_loads,
    batch_objectives,
    batch_scalarize,
)

__all__ = [
    "Nest",
    "SolverConfig",
    "SolveResult",
    "ParetoArchive",
    "decode",
    "repair",
    "solve",
]

LA_APPLIES_CHOICES = ("regenerated", "initial_population", "both")
ABANDON_CHOICES = ("worst_ranked", "random")


@dataclass(frozen=True)
class Nest:
    """One candidate: continuous position plus its decoded, evaluated placement."""

    position: np.ndarray
    decoded: Placement
    objectives: ObjectiveVector
    scalar: float

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=np.float64)
        position.flags.writeable = False
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class SolverConfig:
    """Cuckoo-search settings; ``levy_scale=None`` resolves to 0.01 * (m - 1)."""

    pop_size: int = 100
    max_cycles: int = 500
    p_a: float = 0.25
    levy_beta: float = 1.5
    levy_scale: float | None = None
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    la_fraction: float = 0.5
    reward_a: float = 0.5
    penalty_b: float = 0.05
    la_applies_to: str = "both"
    abandon_strategy: str = "worst_ranked"
    archive_cap: int = 100

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError("p_a must lie in [0, 1]")
        if not 1.0 < self.levy_beta <= 2.0:
            raise ValueError("levy_beta must lie in (1, 2]")
        if self.levy_scale is not None and self.levy_scale <= 0.0:
            raise ValueError("levy_scale must be positive")
        if not 0.0 <= self.la_fraction <= 1.0:
            raise ValueError("la_fraction must lie in [0, 1]")
        if self.la_applies_to not in LA_APPLIES_CHOICES:
            raise ValueError(f"la_applies_to must be one of {LA_APPLIES_CHOICES}")
        if self.abandon_strategy not in ABANDON_CHOICES:
            raise ValueError(f"abandon_strategy must be one of {ABANDON_CHOICES}")
        if self.archive_cap < 1:
            raise ValueError("archive_cap must be at least 1")


@dataclass(frozen=True)
class SolveResult:
    """Best nest, final non-dominated archive, and per-cycle best-so-far history."""

    best: Nest
    archive: tuple[Nest, ...]
    history: tuple[float, ...]
    wall_time: float
    cycles_run: int


def decode(position, m: int) -> Placement:
    """Round each coordinate half-up and clamp into the 1..m server range."""
    a0 = _decode0(np.asarray(position, dtype=np.float64), m)
    return Placement(tuple(int(v) + 1 for v in a0))


def _decode0(position: np.ndarray, m: int) -> np.ndarray:
    rounded = np.floor(position + 0.5)
    return np.clip(rounded, 1.0, float(m)).astype(np.int64) - 1


def _mantegna_sigma(beta: float) -> float:
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def _levy(rng: np.random.Generator, beta: float, shape: tuple[int, ...]) -> np.ndarray:
    """Heavy-tailed steps u / |v|^(1/beta) of ``shape``, with the stable-matching sigma for u."""
    if not 1.0 < beta <= 2.0:
        raise ValueError("levy beta must lie in (1, 2]")
    u = rng.normal(0.0, _mantegna_sigma(beta), shape)
    v = rng.normal(0.0, 1.0, shape)
    return u / np.abs(v) ** (1.0 / beta)


def repair(problem: PlacementProblem, placement: Placement) -> Placement:
    """Move VMs off overloaded servers onto the feasible server with most slack.

    Deterministic.  Feasible input comes back unchanged; when some VM cannot
    be rehosted the placement is returned as-is, still infeasible.
    """
    placement.validate_for(problem)
    a0 = np.asarray(placement.assign, dtype=np.int64) - 1
    cpu_used, mem_used, counts = (arr[0].copy() for arr in batch_loads(problem, a0[None, :]))
    if _repair_row(problem, a0, cpu_used, mem_used, counts):
        return Placement(tuple(int(v) + 1 for v in a0))
    return placement


def _repair_row(
    problem: PlacementProblem,
    a0: np.ndarray,
    cpu_used: np.ndarray,
    mem_used: np.ndarray,
    counts: np.ndarray,
) -> bool:
    """In-place repair of one assignment row and its load accumulators.

    Each move evicts the largest-demand VM from the first overloaded server
    and rehosts it on the feasible server with maximum combined slack, so a
    VM moves at most once and the loop is bounded by n moves.
    """
    server_cpu, server_mem = problem.server_cpu, problem.server_mem
    vm_cpu, vm_mem = problem.vm_cpu, problem.vm_mem
    measure = problem.vm_demand_measure
    changed = False
    for _ in range(problem.n):
        over = cpu_used > server_cpu
        over |= mem_used > server_mem
        j = int(np.argmax(over))
        if not over[j]:
            break
        # largest hosted VM; masked argmax keeps the first-index tie-break
        v = int(np.argmax(np.where(a0 == j, measure, -np.inf)))
        old_cpu, old_mem = cpu_used[j], mem_used[j]
        cpu_used[j] -= vm_cpu[v]
        mem_used[j] -= vm_mem[v]
        counts[j] -= 1
        fits = cpu_used + vm_cpu[v] <= server_cpu
        fits &= mem_used + vm_mem[v] <= server_mem
        if not fits.any():
            # restore the saved values: subtract-then-add can drift by an ulp
            cpu_used[j] = old_cpu
            mem_used[j] = old_mem
            counts[j] += 1
            break
        slack = (
            problem.alpha * (server_cpu - cpu_used) / problem.mean_cpu
            + problem.beta * (server_mem - mem_used) / problem.mean_mem
        )
        slack[~fits] = -np.inf
        t = int(np.argmax(slack))
        a0[v] = t
        cpu_used[t] += vm_cpu[v]
        mem_used[t] += vm_mem[v]
        counts[t] += 1
        changed = True
    return changed


_CACHE_MISS = object()
_REPAIR_CACHE_LIMIT = 65536


def _evaluate_rows(
    problem: PlacementProblem,
    rows: np.ndarray,
    weights: ScalarWeights,
    cache: dict | None = None,
) -> tuple[BatchObjectives, np.ndarray]:
    """Repair each row in place, then score the batch.

    Returns the objective columns and the scalar column.  Loads of rows the
    repair modified are recomputed from scratch so scores match a
    from-scratch evaluation bit for bit.

    ``cache`` memoizes repair by row content; repair is a pure function of
    the row, so hits reproduce the miss path exactly.  Entries are ``None``
    for rows repair could not change.
    """
    cpu_used, mem_used, counts = batch_loads(problem, rows)
    bad = ~(
        (cpu_used <= problem.server_cpu).all(axis=1)
        & (mem_used <= problem.server_mem).all(axis=1)
    )
    changed = np.zeros(rows.shape[0], dtype=bool)
    for r in np.flatnonzero(bad):
        if cache is None:
            changed[r] = _repair_row(problem, rows[r], cpu_used[r], mem_used[r], counts[r])
            continue
        key = rows[r].tobytes()
        hit = cache.get(key, _CACHE_MISS)
        if hit is not _CACHE_MISS:
            if hit is not None:
                rows[r] = hit
                changed[r] = True
            continue
        moved = _repair_row(problem, rows[r], cpu_used[r], mem_used[r], counts[r])
        changed[r] = moved
        if len(cache) >= _REPAIR_CACHE_LIMIT:
            cache.clear()
        cache[key] = rows[r].copy() if moved else None
    if changed.any():
        idx = np.flatnonzero(changed)
        cpu_used[idx], mem_used[idx], counts[idx] = batch_loads(problem, rows[idx])
    objs = batch_objectives(problem, cpu_used, mem_used, counts)
    return objs, batch_scalarize(objs, weights)


class ParetoArchive:
    """Bounded set of mutually non-dominated entries; feasible trumps infeasible.

    At most one entry is kept per distinct objective vector.  When the cap is
    exceeded, the entry with the smallest nearest-neighbor distance in
    min-max-normalized objective space is dropped until the cap holds.
    """

    def __init__(self, cap: int | None):
        self.cap = cap
        self._positions: list[np.ndarray] = []
        self._rows: list[np.ndarray] = []
        self._objs: list[tuple[float, float, float]] = []
        self._feas: list[bool] = []
        self._scalars: list[float] = []
        self._matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._objs)

    def _obj_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.array(self._objs, dtype=np.float64).reshape(len(self._objs), 3)
        return self._matrix

    def rejects(self, cand: np.ndarray, cand_feas: np.ndarray) -> np.ndarray:
        """Vectorized pre-check: True where a current member beats or equals the candidate.

        Offering a rejected candidate is a no-op, and rejection only grows as
        entries are accepted, so survivors of this check can be offered one by
        one with identical results.
        """
        if not self._objs:
            return np.zeros(len(cand_feas), dtype=bool)
        mat = self._obj_matrix()
        feas_col = np.asarray(self._feas)
        trump = feas_col[:, None] & ~cand_feas[None, :]
        same_class = feas_col[:, None] == cand_feas[None, :]
        ge = (
            (mat[:, 0][:, None] >= cand[:, 0])
            & (mat[:, 1][:, None] <= cand[:, 1])
            & (mat[:, 2][:, None] <= cand[:, 2])
        )
        return (trump | (same_class & ge)).any(axis=0)

    def offer(self, position: np.ndarray, row: np.ndarray, objs: ObjectiveVector, scalar: float) -> bool:
        """Insert if non-dominated; drops newly dominated members. True when inserted."""
        u, lb, af, feas = objs.utilization, objs.load_balance, objs.active_fraction, objs.feasible
        if self._objs:
            mat = self._obj_matrix()
            feas_col = np.asarray(self._feas)
            same_class = feas_col == feas
            ge = (mat[:, 0] >= u) & (mat[:, 1] <= lb) & (mat[:, 2] <= af)
            eq = (mat[:, 0] == u) & (mat[:, 1] == lb) & (mat[:, 2] == af)
            beats_candidate = (feas_col & ~feas) | (same_class & ge & ~eq)
            if beats_candidate.any() or (same_class & eq).any():
                return False
            le = (mat[:, 0] <= u) & (mat[:, 1] >= lb) & (mat[:, 2] >= af)
            beaten = (~feas_col & feas) | (same_class & le & ~eq)
            if beaten.any():
                keep = ~beaten
                self._positions = [p for p, k in zip(self._positions, keep) if k]
                self._rows = [r for r, k in zip(self._rows, keep) if k]
                self._objs = [o for o, k in zip(self._objs, keep) if k]
                self._feas = [f for f, k in zip(self._feas, keep) if k]
                self._scalars = [s for s, k in zip(self._scalars, keep) if k]
        self._positions.append(np.array(position, dtype=np.float64))
        self._rows.append(np.array(row, dtype=np.int64))
        self._objs.append((float(u), float(lb), float(af)))
        self._feas.append(bool(feas))
        self._scalars.append(float(scalar))
        self._matrix = None
        self._thin()
        return True

    def _thin(self) -> None:
        while self.cap is not None and len(self._objs) > self.cap:
            mat = self._obj_matrix()
            span = mat.max(axis=0) - mat.min(axis=0)
            span[span == 0.0] = 1.0
            norm = (mat - mat.min(axis=0)) / span
            diff = norm[:, None, :] - norm[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            drop = int(np.argmin(dist.min(axis=1)))
            del self._positions[drop], self._rows[drop], self._objs[drop]
            del self._feas[drop], self._scalars[drop]
            self._matrix = None

    def nests(self) -> tuple[Nest, ...]:
        return tuple(
            Nest(
                position,
                Placement(tuple(int(v) + 1 for v in row)),
                ObjectiveVector(o[0], o[1], o[2], f),
                s,
            )
            for position, row, o, f, s in zip(
                self._positions, self._rows, self._objs, self._feas, self._scalars
            )
        )


class _Batch(NamedTuple):
    """Evaluated candidates: snapped positions, repaired 0-based rows, objective columns, scalars."""

    positions: np.ndarray
    rows: np.ndarray
    utilization: np.ndarray
    load_balance: np.ndarray
    active_fraction: np.ndarray
    feasible: np.ndarray
    scalars: np.ndarray

    def vector(self, i: int) -> ObjectiveVector:
        return ObjectiveVector(
            float(self.utilization[i]),
            float(self.load_balance[i]),
            float(self.active_fraction[i]),
            bool(self.feasible[i]),
        )

    def entry(self, i: int) -> tuple:
        """Copies of entry ``i``: position, row, objective vector and scalar."""
        return self.positions[i].copy(), self.rows[i].copy(), self.vector(i), float(self.scalars[i])

    def put(self, at, other: _Batch, idx) -> None:
        """Overwrite entries ``at`` of every column with entries ``idx`` of ``other``."""
        for dst, src in zip(self, other):
            dst[at] = src[idx]


def _offer_batch(archive: ParetoArchive, batch: _Batch) -> None:
    """Offer, in row order, every entry the archive does not reject outright."""
    cand = np.stack((batch.utilization, batch.load_balance, batch.active_fraction), axis=1)
    for i in np.flatnonzero(~archive.rejects(cand, batch.feasible)):
        archive.offer(batch.positions[i], batch.rows[i], batch.vector(i), float(batch.scalars[i]))


class _Run:
    """The bookkeeping every population solver shares around its move operator.

    ``evaluate`` decodes, repairs and scores positions through one repair
    cache; ``record`` tracks the best-so-far (feasible first), offers the
    batch to the archive and, per cycle, logs the history and the trace row;
    ``result`` assembles the ``SolveResult``.  ``config`` is any solver
    config: only its ``weights`` and ``archive_cap`` are read.
    """

    def __init__(self, problem: PlacementProblem, config, trace: TextIO | None) -> None:
        self.t0 = time.perf_counter()
        self.problem = problem
        self.weights = config.weights
        self.trace = trace
        self.archive = ParetoArchive(config.archive_cap)
        self.cache: dict = {}
        self.history: list[float] = []
        self.scalar = math.inf
        self.best: tuple | None = None
        self.feasible_scalar = math.inf
        self.feasible_best: tuple | None = None

    def evaluate(self, positions: np.ndarray) -> _Batch:
        """Score ``positions``; coordinates the repair moved snap onto their new server."""
        rows = _decode0(positions, self.problem.m)
        before = rows.copy()
        objs, scalars = _evaluate_rows(self.problem, rows, self.weights, self.cache)
        return _Batch(np.where(rows != before, rows + 1.0, positions), rows, *objs, scalars)

    def record(self, batch: _Batch, cycle: int = 0) -> None:
        """Update the best-so-far and the archive; from cycle 1 on, log history and trace."""
        scalars = batch.scalars
        i = int(np.argmin(scalars))
        if scalars[i] < self.scalar:
            self.scalar = float(scalars[i])
            self.best = batch.entry(i)
        feas = np.flatnonzero(batch.feasible)
        if feas.size:
            i = int(feas[np.argmin(scalars[feas])])
            if scalars[i] < self.feasible_scalar:
                self.feasible_scalar = float(scalars[i])
                self.feasible_best = batch.entry(i)
        _offer_batch(self.archive, batch)
        if cycle:
            self.history.append(self.scalar)
            if self.trace is not None:
                row = {"cycle": cycle, "best_scalar": self.scalar, "archive_size": len(self.archive)}
                self.trace.write(json.dumps(row) + "\n")

    def result(self, cycles_run: int) -> SolveResult:
        position, row, vector, scalar = self.feasible_best or self.best
        best = Nest(position, Placement(tuple(int(v) + 1 for v in row)), vector, scalar)
        wall = time.perf_counter() - self.t0
        return SolveResult(best, self.archive.nests(), tuple(self.history), wall, cycles_run)

    def single_server(self) -> SolveResult:
        """With one server every VM sits on it: score that placement and stop."""
        self.record(self.evaluate(np.ones((1, self.problem.n))))
        self.history.append(self.scalar)
        return self.result(0)


def _draw_positions(bank: AutomatonBank, rng: np.random.Generator, k: int, k_la: int) -> np.ndarray:
    """k positions: the first ``k_la`` sampled from the bank, the rest uniform over [1, m]."""
    X = np.empty((k, bank.n))
    if k_la:
        X[:k_la] = sample_assignments(bank, k_la, rng) + 1.0
    if k_la < k:
        X[k_la:] = rng.uniform(1.0, float(bank.m), (k - k_la, bank.n))
    return X


def solve(problem: PlacementProblem, config: SolverConfig, trace: TextIO | None = None) -> SolveResult:
    """Run the automata-guided cuckoo search; deterministic for a fixed seed.

    Each cycle: propose one Lévy step per nest against a uniformly random
    nest (all proposals from the cycle-start population), abandon the worst
    ``ceil(p_a * pop)`` nests and regenerate them (an ``la_fraction`` share
    from the automaton bank, the rest uniformly), update the bank with the
    cycle's scalar-best and scalar-worst placements, and offer the whole
    population to the non-dominated archive.
    """
    run = _Run(problem, config, trace)
    m, n = problem.m, problem.n
    if m == 1:
        return run.single_server()

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    scale = config.levy_scale if config.levy_scale is not None else 0.01 * (m - 1)
    bank = init_bank(n, m, config.reward_a, config.penalty_b)
    la_initial = config.la_applies_to in ("initial_population", "both")
    la_regenerated = config.la_applies_to in ("regenerated", "both")

    seed_la = math.ceil(config.la_fraction * pop) if la_initial else 0
    nests = run.evaluate(_draw_positions(bank, rng, pop, seed_la))
    run.record(nests)

    for cycle in range(1, config.max_cycles + 1):
        # 1. Lévy proposals, each judged against a uniformly random nest.
        X = nests.positions
        gbest = X[int(np.argmin(nests.scalars))].copy()
        steps = _levy(rng, config.levy_beta, (pop, n))
        prop = run.evaluate(np.clip(X + scale * steps * (X - gbest), 1.0, float(m)))
        targets = rng.integers(0, pop, pop)
        for i in range(pop):
            j = targets[i]
            if prop.scalars[i] < nests.scalars[j]:
                nests.put(j, prop, i)

        # 2. Abandonment and regeneration.
        n_abandon = math.ceil(config.p_a * pop)
        if n_abandon:
            if config.abandon_strategy == "random":
                doomed = rng.permutation(pop)[:n_abandon]
            else:
                doomed = np.argsort(nests.scalars, kind="stable")[-n_abandon:][::-1]
            n_la = math.ceil(config.la_fraction * n_abandon) if la_regenerated else 0
            nests.put(doomed, run.evaluate(_draw_positions(bank, rng, n_abandon, n_la)), slice(None))

        # 3. Bank update from the cycle's scalar-best and scalar-worst placements.
        bank = update_from_population(
            bank, nests.rows[int(np.argmin(nests.scalars))], nests.rows[int(np.argmax(nests.scalars))]
        )

        # 4. Archive and bookkeeping.
        run.record(nests, cycle)

    return run.result(config.max_cycles)
