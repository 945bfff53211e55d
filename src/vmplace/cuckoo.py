"""Multi-objective cuckoo search over VM placements, guided by learning automata."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .automata import AutomatonBank, _check_factors, init_bank, sample_assignments, update_from_population
from .instance import Placement, PlacementProblem, _check_seed, _checked_count
from .objectives import (
    LoadWork,
    ObjectiveVector,
    ScalarWeights,
    _assign0,
    _fits,
    _slack,
    _vector,
    _weakly_dominates,
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

# Yang & Deb's fixed Lévy exponent, and the non-dominated archive's size bound
LEVY_BETA = 1.5
ARCHIVE_CAP = 100


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
    """Cuckoo-search settings; ``levy_scale=None`` resolves to 0.01 * (m - 1).

    The Lévy exponent is fixed at ``LEVY_BETA`` and the archive at ``ARCHIVE_CAP``.
    """

    pop_size: int = 100
    max_cycles: int = 500
    p_a: float = 0.25
    levy_scale: float | None = None
    seed: int = 0
    weights: ScalarWeights = field(default_factory=ScalarWeights)
    la_fraction: float = 0.5
    reward_a: float = AutomatonBank.reward_a
    penalty_b: float = AutomatonBank.penalty_b

    def __post_init__(self) -> None:
        _check_search(self, "max_cycles")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError("p_a must lie in [0, 1]")
        if self.levy_scale is not None and not (math.isfinite(self.levy_scale) and self.levy_scale > 0.0):
            raise ValueError("levy_scale must be finite and positive")
        if not 0.0 <= self.la_fraction <= 1.0:
            raise ValueError("la_fraction must lie in [0, 1]")
        _check_factors(self.reward_a, self.penalty_b)


def _check_search(config, cycles: str) -> None:
    """Raise ValueError unless ``pop_size`` is at least 2, the ``cycles`` field at least 0 and ``seed`` a valid seed."""
    if _checked_count("pop_size", config.pop_size) < 2:
        raise ValueError("pop_size must be at least 2")
    if _checked_count(cycles, getattr(config, cycles)) < 0:
        raise ValueError(f"{cycles} must be non-negative")
    _check_seed(config.seed)


@dataclass(frozen=True)
class SolveResult:
    """Best nest, final non-dominated archive, and per-cycle best-so-far history."""

    best: Nest
    archive: tuple[Nest, ...]
    history: tuple[float, ...]
    wall_time: float
    cycles_run: int


def decode(position, m: int) -> Placement:
    """Round each coordinate half-up and clamp into the 1..m server range.

    Infinite coordinates clamp to the nearest end; a NaN raises ValueError.
    """
    position = np.asarray(position, dtype=np.float64)
    if np.isnan(position).any():
        raise ValueError("position has a NaN coordinate")
    return Placement.from_row(_decode0(position, m))


def _decode0(
    position: np.ndarray, m: int, *, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """0-based rows of ``position``, written into ``out``; ``scratch`` takes the float steps."""
    rounded = np.add(position, 0.5, out=scratch)
    np.floor(rounded, out=rounded)
    np.clip(rounded, 1.0, float(m), out=rounded)
    if out is None:
        out = np.empty(rounded.shape, dtype=np.int64)
    np.copyto(out, rounded, casting="unsafe")
    out -= 1
    return out


def _mantegna_sigma(beta: float) -> float:
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def _levy(rng: np.random.Generator, beta: float, out) -> np.ndarray:
    """Heavy-tailed steps u / |v|^(1/beta), with the stable-matching sigma for u.

    ``out`` is a ``(2, *shape)`` float buffer, or ``shape`` to allocate one:
    u is drawn into ``out[0]`` and v into ``out[1]``, and the steps are
    returned in ``out[0]``.  The draws and float operations are those of
    ``rng.normal(0.0, sigma, shape) / np.abs(rng.normal(0.0, 1.0, shape)) ** (1 / beta)``.
    """
    if not 1.0 < beta <= 2.0:
        raise ValueError("levy beta must lie in (1, 2]")
    if not isinstance(out, np.ndarray):
        out = np.empty((2, *out))
    u, v = out
    rng.standard_normal(out=u)
    u *= _mantegna_sigma(beta)
    rng.standard_normal(out=v)
    np.abs(v, out=v)
    v **= 1.0 / beta
    u /= v
    return u


def repair(problem: PlacementProblem, placement: Placement) -> Placement:
    """Move VMs off overloaded servers onto the feasible server with most slack.

    Deterministic.  Feasible input comes back unchanged.  Repair stops when
    an evicted VM fits nowhere, or when the overloaded server hosts no VM
    (float residue after evicting them all); the moves made before then are
    kept, so the result can still be infeasible.
    """
    rows = _assign0(problem, placement)[None, :]
    if _repair_rows(problem, rows, batch_loads(problem, rows)[:2])[0]:
        return Placement.from_row(rows[0])
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
    VM moves at most once and the loop is bounded by n moves.  The row gives
    up when the evicted VM fits nowhere or the overloaded server hosts no VM.
    """
    demand, measure = problem.demand, problem.vm_demand_measure
    load = np.array((cpu_used, mem_used))
    changed = False
    for _ in range(problem.n):
        over = ~_fits(problem, load).all(axis=0)
        j = int(np.argmax(over))
        hosted = a0 == j
        if not (over[j] and hosted.any()):
            break
        # largest hosted VM; masked argmax keeps the first-index tie-break
        v = int(np.argmax(np.where(hosted, measure, -np.inf)))
        old = load[:, j].copy()
        load[:, j] -= demand[:, v]
        counts[j] -= 1
        fits = _fits(problem, load + demand[:, v, None]).all(axis=0)
        if not fits.any():
            # restore the saved values: subtract-then-add can drift by an ulp
            load[:, j] = old
            counts[j] += 1
            break
        slack = _slack(problem, load)
        slack[~fits] = -np.inf
        t = int(np.argmax(slack))
        a0[v] = t
        load[:, t] += demand[:, v]
        counts[t] += 1
        changed = True
    cpu_used[:], mem_used[:] = load
    return changed


def _repair_rows(problem: PlacementProblem, rows: np.ndarray, load: np.ndarray) -> np.ndarray:
    """In-place ``_repair_row`` on every row of a batch at once; True where a row changed.

    ``load`` is the rows' stacked ``(2, k, m)`` load on entry and scratch
    afterwards: only ``rows`` and the returned flags are outputs, and they
    match the per-row rule bit for bit.  Each pass makes at most one move per
    live row, with the per-row rule's float operations in the same order.  A
    row leaves the batch once it has no overloaded server, that server hosts
    no VM, or its evicted VM fits nowhere.
    """
    m, n = problem.m, problem.n
    changed = np.zeros(rows.shape[0], dtype=bool)
    # VMs in eviction order: largest demand first, first index on ties.  On an
    # overloaded server the next VM to evict is its first one in this order.
    order = (-problem.vm_demand_measure).argsort(kind="stable")
    demand = problem.demand.take(order, axis=1)
    # The working arrays hold only the live rows: ``load`` is (resource, row,
    # server), ``a[r, q]`` is the server of VM ``order[q]``, and ``ids`` maps
    # rows back to the batch.  Cells are reached by flat offset with take/put.
    a = rows.take(order, axis=1)
    ids = np.arange(rows.shape[0])
    at_m, at_n = ids * m, ids * n
    stride = np.arange(len(load))[:, None] * m
    resource_at = stride * ids.size
    for i in range(n):
        # The first overloaded server j and its largest VM p: a row is live
        # when both exist (``hosted[p] > ok[j]``).  A dead row's j or p is 0 and
        # its eviction is void; a live row whose VM fits nowhere has t at 0.
        ok = _fits(problem, load).all(axis=0)
        j = ok.argmin(axis=1)
        j_at = at_m + j
        hosted = a == j[:, None]
        p = hosted.argmax(axis=1)
        live = hosted.take(at_n + p) > ok.take(j_at)
        d = demand.take(p, axis=1)
        cell = resource_at + j_at
        load.put(cell, load.take(cell) - d)
        fits = _fits(problem, load + d[:, :, None]).all(axis=0)
        t = np.where(fits, _slack(problem, load), -np.inf).argmax(axis=1)
        keep = live & fits.take(at_m + t)
        if not keep.all():
            idx = np.flatnonzero(keep)
            k = idx.size
            if not k:
                break
            ids, a, load = ids.take(idx), a.take(idx, axis=0), load.take(idx, axis=1)
            p, d, t = p.take(idx), d.take(idx, axis=1), t.take(idx)
            at_m, at_n, resource_at = at_m[:k], at_n[:k], stride * k
        rows.put(ids * n + order.take(p), t)
        a.put(at_n + p, t)
        cell = resource_at + (at_m + t)
        load.put(cell, load.take(cell) + d)
        if not i:
            # every row still live has moved, and later passes only drop rows
            changed[ids] = True
    return changed


class _Workspace(LoadWork):
    """``batch_loads``' buffers plus the ones an evaluate reuses, for up to ``size`` rows.

    ``rows`` takes decoded rows, ``positions`` the snapped positions (and the
    decode's float steps), and ``spare`` the rows under repair.
    """

    def __init__(self, problem: PlacementProblem, size: int) -> None:
        super().__init__(problem, size)
        self.rows = np.empty((size, problem.n), dtype=np.int64)
        self.spare = np.empty_like(self.rows)
        self.positions = np.empty((size, problem.n))


def _evaluate_rows(
    problem: PlacementProblem,
    rows: np.ndarray,
    weights: ScalarWeights,
    *,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repair the infeasible rows in place, then score the batch.

    Returns the indices of the rows the repair changed, the ``(k, 4)`` key
    rows and the scalar column.  Loads of the changed rows are recomputed
    from scratch so scores match a from-scratch evaluation bit for bit.
    """
    if work is None:
        work = _Workspace(problem, rows.shape[0])
    loads = batch_loads(problem, rows, work=work)
    bad = np.flatnonzero(~_fits(problem, loads[:2]).all(axis=(0, 2)))
    changed = bad[:0]
    if bad.size:
        repaired = rows.take(bad, axis=0, out=work.spare[: bad.size], mode="clip")
        moved = _repair_rows(problem, repaired, loads[:2].take(bad, axis=1))
        changed = bad[moved]
        if changed.size:
            fixed = repaired[moved]
            rows[changed] = fixed
            loads[:, changed] = batch_loads(problem, fixed, work=work)
    keys = batch_objectives(problem, loads)
    return changed, keys, batch_scalarize(keys, weights)


class ParetoArchive:
    """Bounded set of mutually non-dominated entries; feasible trumps infeasible.

    At most one entry is kept per distinct objective vector.  Members are a
    ``_Batch``'s columns in insertion order: key rows, positions, rows and
    scalars.  Past the cap, the member nearest another in min-max-normalized
    objective space is dropped until it holds.
    """

    def __init__(self, cap: int | None):
        self.cap = cap
        self._keys = np.empty((0, 4))
        self._positions = self._rows = self._scalars = np.empty(0)

    def __len__(self) -> int:
        return len(self._keys)

    def rejects(self, keys: np.ndarray) -> np.ndarray:
        """True where a current member beats or equals the candidate key row."""
        return _weakly_dominates(self._keys, keys).any(axis=0)

    def offer(self, batch: _Batch) -> int:
        """Merge ``batch`` into the archive; returns the number of rows inserted.

        First ``rejects`` drops the rows a member beats or equals.  The rest
        are merged in blocks of at most ``ARCHIVE_CAP`` rows: a row goes in
        when no other entry beats it strictly and no earlier one equals it, and
        the members an inserted row beats leave.  Inserted rows are appended in
        order, and each block is thinned only once merged: while no block takes
        the archive past its cap, this is offering the rows one at a time.
        """
        fresh = np.flatnonzero(~self.rejects(batch.keys))
        inserted = 0
        for start in range(0, fresh.size, ARCHIVE_CAP):
            block = fresh[start : start + ARCHIVE_CAP]
            k = len(self)
            merged = np.concatenate((self._keys, batch.keys[block]))
            # Weak dominance is transitive, so one pass over members plus block
            # finds the survivors: an entry leaves when another beats it
            # strictly or an earlier one equals it.
            dom = _weakly_dominates(merged, merged)
            eq = dom & dom.T
            kept = np.flatnonzero(~((dom & ~eq).any(axis=0) | np.triu(eq, 1).any(axis=0)))
            inserted += int(np.count_nonzero(kept >= k))
            kept = self._thin(merged, kept)
            self._keys = merged[kept]
            columns = (self._positions, batch.positions), (self._rows, batch.rows), (self._scalars, batch.scalars)
            self._positions, self._rows, self._scalars = (
                (np.concatenate((old, new[block])) if k else new[block])[kept] for old, new in columns)
        return inserted

    def _thin(self, keys: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``idx`` less, one at a time, the entry of ``keys`` nearest another, until the cap holds."""
        while self.cap is not None and idx.size > self.cap:
            mat = keys[idx, :3]
            span = mat.max(axis=0) - mat.min(axis=0)
            span[span == 0.0] = 1.0
            norm = (mat - mat.min(axis=0)) / span
            diff = norm[:, None, :] - norm[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            np.fill_diagonal(dist, np.inf)
            idx = np.delete(idx, int(np.argmin(dist.min(axis=1))))
        return idx

    def nests(self) -> tuple[Nest, ...]:
        members = zip(self._positions, self._rows, self._keys, self._scalars.tolist())
        return tuple(Nest(position, Placement.from_row(row), _vector(key), scalar)
                     for position, row, key, scalar in members)


class _Batch(NamedTuple):
    """Evaluated candidates: snapped positions, repaired 0-based rows, ``batch_objectives`` key rows, scalars."""

    positions: np.ndarray
    rows: np.ndarray
    keys: np.ndarray
    scalars: np.ndarray

    def entry(self, i: int) -> tuple:
        """Copies of entry ``i``: position, row, objective vector and scalar."""
        return self.positions[i].copy(), self.rows[i].copy(), _vector(self.keys[i]), float(self.scalars[i])

    def copy(self) -> _Batch:
        return _Batch(*(column.copy() for column in self))

    def put(self, at, other: _Batch, idx) -> None:
        """Overwrite entries ``at`` of every column with entries ``idx`` of ``other``."""
        for dst, src in zip(self, other):
            dst[at] = src[idx]


class _Run:
    """The bookkeeping around a solver's moves, shared by ``_search`` and ``brute_force``.

    ``evaluate`` repairs a batch of candidates, the infeasible ones as one
    batch, and scores them; ``record`` tracks the best-so-far (feasible
    first), offers the batch to the archive and, per cycle, logs the history
    and the trace row; ``result`` assembles the ``SolveResult``.

    A returned batch's positions, and the rows ``evaluate`` decodes, live in
    the run's per-solve workspace: they are valid until the next evaluate,
    so a solver copies what it keeps.  Candidates passed to ``evaluate``
    must not be the workspace's own.
    """

    def __init__(self, problem: PlacementProblem, weights: ScalarWeights, trace: TextIO | None, cap=ARCHIVE_CAP) -> None:
        self.t0 = time.perf_counter()
        self.problem = problem
        self.weights = weights
        self.trace = trace
        self.archive = ParetoArchive(cap)
        self.history: list[float] = []
        self.scalar = math.inf
        self.best: tuple | None = None
        self.feasible_scalar = math.inf
        self.feasible_best: tuple | None = None
        self._work: _Workspace | None = None

    def _workspace(self, k: int) -> _Workspace:
        if self._work is None or self._work.size < k:
            self._work = _Workspace(self.problem, k)
        return self._work

    def evaluate(self, candidates: np.ndarray) -> _Batch:
        """Repair and score int 0-based rows in place, or float positions decoded into rows.

        Rows score as positions ``rows + 1``.  Position coordinates that the repair
        moved snap onto their new server, found by decoding the changed rows again.
        """
        k, m = candidates.shape[0], self.problem.m
        work = self._workspace(k)
        snapped = work.positions[:k]
        given_rows = candidates.dtype.kind == "i"
        rows = candidates if given_rows else _decode0(candidates, m, out=work.rows[:k], scratch=snapped)
        changed, keys, scalars = _evaluate_rows(self.problem, rows, self.weights, work=work)
        if given_rows:
            return _Batch(np.add(rows, 1.0, out=snapped), rows, keys, scalars)
        np.copyto(snapped, candidates)
        if changed.size:
            old, new = candidates[changed], rows[changed]
            snapped[changed] = np.where(new != _decode0(old, m), new + 1.0, old)
        return _Batch(snapped, rows, keys, scalars)

    def record(self, batch: _Batch, cycle: int = 0) -> None:
        """Update the best-so-far and the archive; from cycle 1 on, log history and trace."""
        scalars = batch.scalars
        i = int(np.argmin(scalars))
        if scalars[i] < self.scalar:
            self.scalar = float(scalars[i])
            self.best = batch.entry(i)
        feas = np.flatnonzero(batch.keys[:, 3])
        if feas.size:
            i = int(feas[np.argmin(scalars[feas])])
            if scalars[i] < self.feasible_scalar:
                self.feasible_scalar = float(scalars[i])
                self.feasible_best = batch.entry(i)
        self.archive.offer(batch)
        if cycle:
            self.history.append(self.scalar)
            if self.trace is not None:
                row = {"cycle": cycle, "best_scalar": self.scalar, "archive_size": len(self.archive)}
                self.trace.write(json.dumps(row) + "\n")

    def result(self, cycles_run: int) -> SolveResult:
        position, row, vector, scalar = self.feasible_best or self.best
        best = Nest(position, Placement.from_row(row), vector, scalar)
        wall = time.perf_counter() - self.t0
        return SolveResult(best, self.archive.nests(), tuple(self.history), wall, cycles_run)


def _search(problem: PlacementProblem, config, cycles: int, trace: TextIO | None, moves) -> SolveResult:
    """Score and record what the operator ``moves(run, rng, config)`` proposes: the initial population, then ``cycles`` more.

    Each time, the operator yields candidates (int rows or float positions),
    is sent their scored ``_Batch`` and yields the population to record; it
    is not resumed past the budget.  ``rng`` is seeded with ``config.seed``.
    With one server every VM sits on it: that placement is scored once.
    """
    run = _Run(problem, config.weights, trace)
    if problem.m == 1:
        run.record(run.evaluate(np.zeros((1, problem.n), dtype=np.int64)))
        run.history.append(run.scalar)
        return run.result(0)
    operator = moves(run, np.random.default_rng(config.seed), config)
    for cycle in range(cycles + 1):
        run.record(operator.send(run.evaluate(next(operator))), cycle)
    return run.result(cycles)


def _draw_positions(bank: AutomatonBank, rng: np.random.Generator, out: np.ndarray, k_la: int) -> np.ndarray:
    """Fill the rows of ``out``: the first ``k_la`` sampled from the bank, the rest uniform over [1, m]."""
    k = out.shape[0]
    if k_la:
        out[:k_la] = sample_assignments(bank, k_la, rng) + 1.0
    if k_la < k:
        out[k_la:] = rng.uniform(1.0, float(bank.m), (k - k_la, bank.n))
    return out


def _accept(nests: _Batch, prop: _Batch, targets: np.ndarray) -> None:
    """Move proposal ``i`` into nest ``targets[i]`` where it wins, as one ``put``.

    For each target the first proposal with the lowest scalar wins, and only
    if that scalar is strictly below the nest's.  This is what offering the
    proposals one at a time in row order gives: the accepted scalars strictly
    decrease, so a later equal scalar never replaces an earlier one.
    """
    order = np.lexsort((prop.scalars, targets))
    first = np.ones(order.size, dtype=bool)
    first[1:] = targets[order[1:]] != targets[order[:-1]]
    lead = order[first]
    win = lead[prop.scalars[lead] < nests.scalars[targets[lead]]]
    nests.put(targets[win], prop, win)


def solve(problem: PlacementProblem, config: SolverConfig, trace: TextIO | None = None) -> SolveResult:
    """Run the automata-guided cuckoo search; deterministic for a fixed seed.

    Each cycle first makes all of its random draws, in this order: one Lévy
    step per nest, a uniformly random target nest per step, and the
    ``ceil(p_a * pop)`` regenerated positions (an ``la_fraction`` share from
    the automaton bank, the rest uniformly).  The Lévy proposals, all taken
    from the cycle-start population, and the regenerated positions are then
    repaired and scored as one batch.  Acceptance is one array operation:
    each target nest takes the first of its proposals with the lowest
    scalar, if that beats it strictly.  The worst nests after acceptance
    take the regenerated positions.  Last, the bank learns from the cycle's
    scalar-best and scalar-worst placements, and the whole population is
    offered to the non-dominated archive.
    """
    return _search(problem, config, config.max_cycles, trace, _lamocs)


def _lamocs(run: _Run, rng: np.random.Generator, config: SolverConfig):
    """``solve``'s operator: yields each cycle's candidates, then the nests after the cycle."""
    m, n = run.problem.m, run.problem.n
    pop = config.pop_size
    scale = config.levy_scale if config.levy_scale is not None else 0.01 * (m - 1)
    bank = init_bank(n, m, config.reward_a, config.penalty_b)
    n_abandon = math.ceil(config.p_a * pop)
    n_la = math.ceil(config.la_fraction * n_abandon)

    seed_la = math.ceil(config.la_fraction * pop)
    nests = (yield _draw_positions(bank, rng, np.empty((pop, n)), seed_la)).copy()
    yield nests

    # Per-solve buffers: the cycle's candidates (proposals, then regenerated
    # positions), the Lévy draws and the NaN mask of the proposals.
    candidates = np.empty((pop + n_abandon, n))
    proposals, fresh = candidates[:pop], candidates[pop:]
    draws = np.empty((2, pop, n))
    stuck = np.empty((pop, n), dtype=bool)
    while True:
        # 1. The cycle's random draws, before any evaluation.
        X = nests.positions
        gbest = X[int(np.argmin(nests.scalars))]
        steps = _levy(rng, LEVY_BETA, draws)
        targets = rng.integers(0, pop, pop)
        _draw_positions(bank, rng, fresh, n_la)

        # 2. One batch to score: the Lévy proposals, then the regenerated positions.
        # In place, this is clip(X + scale * steps * (X - gbest), 1, m).
        np.subtract(X, gbest, out=proposals)
        steps *= scale
        # an infinite step times a zero distance is NaN: that coordinate stays put
        with np.errstate(invalid="ignore"):
            proposals *= steps
            proposals += X
            np.clip(proposals, 1.0, float(m), out=proposals)
        np.copyto(proposals, X, where=np.isnan(proposals, out=stuck))
        batch = yield candidates

        # 3. Acceptance, each proposal judged against its target nest.
        _accept(nests, _Batch(*(column[:pop] for column in batch)), targets)

        # 4. Abandonment: the worst nests, worst first, take the regenerated positions.
        if n_abandon:
            doomed = np.argsort(nests.scalars, kind="stable")[-n_abandon:][::-1]
            nests.put(doomed, batch, slice(pop, None))

        # 5. Bank update from the cycle's scalar-best and scalar-worst placements.
        bank = update_from_population(
            bank, nests.rows[int(np.argmin(nests.scalars))], nests.rows[int(np.argmax(nests.scalars))]
        )

        yield nests  # 6. archive and bookkeeping, in _search
