import io
import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import (
    GaConfig,
    GeneratorConfig,
    Placement,
    PsoConfig,
    ScalarWeights,
    SolverConfig,
    check_feasible,
    decode,
    dominates,
    evaluate,
    generate_instance,
    repair,
    scalarize,
    solve,
    solve_ga,
    solve_pso,
)
from vmplace import cuckoo
from vmplace.baselines import brute_force
from vmplace.cuckoo import (
    Nest,
    ParetoArchive,
    _accept,
    _Batch,
    _evaluate_rows,
    _levy,
    _mantegna_sigma,
    _repair_row,
    _repair_rows,
    _Run,
)
from vmplace.objectives import ObjectiveVector, batch_loads, batch_objectives, batch_scalarize

from conftest import make_problem, random_problem


class TestDecode:
    def test_examples(self):
        assert decode([2.4, 1.0, 7.9], 3).assign == (2, 1, 3)
        assert decode([1.5], 3).assign == (2,)
        assert decode([2.5], 3).assign == (3,)
        assert decode([1.0, 2.0, 3.0], 3).assign == (1, 2, 3)

    def test_clamps_out_of_range(self):
        assert decode([-4.0, 99.0], 5).assign == (1, 5)
        assert decode([-math.inf, math.inf], 5).assign == (1, 5)

    def test_rejects_nan(self):
        # the integer cast of a NaN would give an out-of-range server index
        with pytest.raises(ValueError, match="NaN"):
            decode([math.nan, 1.0, 2.0], 3)

    @settings(max_examples=50)
    @given(
        m=st.integers(1, 20),
        values=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12),
    )
    def test_matches_half_up_rounding(self, m, values):
        got = decode(values, m).assign
        expected = tuple(min(max(math.floor(x + 0.5), 1), m) for x in values)
        assert got == expected


class TestLevyStep:
    def test_sigma_formula(self):
        beta = 1.5
        num = math.gamma(1 + beta) * math.sin(math.pi * beta / 2)
        den = math.gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2)
        assert _mantegna_sigma(beta) == pytest.approx((num / den) ** (1 / beta))

    def test_zero_numerator_gives_zero_step(self):
        class StubRng:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, out):
                self.calls += 1
                out[...] = 0.0 if self.calls == 1 else 1.0
                return out

        steps = _levy(StubRng(), np.empty((2, 4)))
        assert np.all(steps == 0.0)

    def test_deterministic_for_seed(self):
        a = _levy(np.random.default_rng(3), np.empty((2, 100)))
        b = _levy(np.random.default_rng(3), np.empty((2, 100)))
        assert np.array_equal(a, b)

    def test_symmetric_and_heavy_tailed(self):
        steps = _levy(np.random.default_rng(42), np.empty((2, 100_000)))
        stderr = steps.std() / math.sqrt(steps.size)
        assert abs(steps.mean()) < 3 * stderr
        z = (steps - steps.mean()) / steps.std()
        kurtosis = np.mean(z**4) - 3.0
        assert kurtosis > 0.0


class TestRepair:
    def test_moves_overflow_to_free_server(self):
        # identical demands tie on size, so the first-indexed VM is evicted
        p = make_problem([(10, 10), (10, 10)], [(6, 6), (6, 6)])
        fixed = repair(p, Placement((1, 1)))
        assert fixed.assign == (2, 1)
        assert check_feasible(p, fixed)[0]

    def test_feasible_input_unchanged(self, split_problem):
        s = Placement((1, 2, 1, 2))
        assert repair(split_problem, s) is s

    def test_impossible_instance_returned_infeasible(self):
        p = make_problem([(10, 10)], [(12, 3), (1, 1)])
        out = repair(p, Placement((1, 1)))
        assert not check_feasible(p, out)[0]

    def test_picks_largest_vm_first(self):
        # server 1 holds (8,1) and (3,1); evicting the 8 restores feasibility in one move
        p = make_problem([(10, 10), (10, 10)], [(8, 1), (3, 1)])
        fixed = repair(p, Placement((1, 1)))
        assert fixed.assign == (2, 1)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**31))
    def test_never_increases_overloaded_count(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        s = Placement(tuple(int(v) for v in rng.integers(1, p.m + 1, p.n)))

        def overloaded(placement):
            return len({v.server for v in check_feasible(p, placement)[1]})

        assert overloaded(repair(p, s)) <= overloaded(s)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def assert_batch_repair_matches_rows(problem, rows):
    """``_repair_rows`` on the batch equals ``_repair_row`` on each row, bit for bit.

    Only the rows and the changed flags are compared: the batch kernel's
    loads are scratch.
    """
    rows = np.array(rows, dtype=np.int64).reshape(-1, problem.n)
    cpu, mem, counts = loads = batch_loads(problem, rows)
    batch = rows.copy()
    changed = _repair_rows(problem, batch, loads[:2].copy())
    single = [rows.copy(), cpu.copy(), mem.copy(), counts.copy()]
    expected = [_repair_row(problem, *(arr[r] for arr in single)) for r in range(len(rows))]
    assert changed.dtype == bool and changed.tolist() == expected
    assert batch.dtype == rows.dtype and _bits(batch) == _bits(single[0])
    return expected


# Half-integer sizes make loads sum exactly onto a capacity; arbitrary
# floats give loads that carry rounding error.
_SIZES = st.one_of(st.integers(1, 16).map(lambda k: k / 2), st.floats(0.1, 9.0))


@st.composite
def repair_batches(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    servers = [(draw(_SIZES), draw(_SIZES)) for _ in range(m)]
    vms = [(draw(_SIZES), draw(_SIZES)) for _ in range(n)]
    k = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    return make_problem(servers, vms), rows


class TestRepairRows:
    @settings(max_examples=300)
    @given(case=repair_batches())
    def test_matches_per_row_rule(self, case):
        assert_batch_repair_matches_rows(*case)

    @pytest.mark.parametrize(
        "servers, vms, rows, expected",
        [
            # fixed, already feasible, and fixed with loads landing exactly on capacity
            ([(10, 10)] * 2, [(5, 5)] * 4, [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 1]], [True, False, True]),
            # a single row on a single server gives up on its first move
            ([(10, 5)], [(1, 2.02), (1, 2.85), (1, 2.66)], [[0, 0, 0]], [False]),
            # m = 1 with feasible rows: nothing to do
            ([(10, 10)], [(6, 6), (3, 3)], [[0, 0], [0, 0]], [False, False]),
            # a VM larger than every server: gives up on the first move
            ([(10, 10), (8, 8)], [(12, 3), (1, 1)], [[0, 0], [1, 0]], [False, False]),
            # one move, then the next evicted VM fits nowhere: gives up mid-row
            ([(10, 10)] * 2, [(6, 1)] * 3, [[0, 0, 0], [1, 1, 1], [0, 1, 0]], [True, True, False]),
            # cpu 0.2 + 0.9 + 0.8 sums to 1.9000000000000001, one ulp over; without
            # the 0.9 it is 1.0000000000000002, and adding the 0.9 back gives 1.9,
            # so the evicted VM returns to its own server: changed, row the same
            ([(1.9, 10)], [(0.2, 1), (0.9, 1), (0.8, 1)], [[0, 0, 0]], [True]),
            # server 1's load stays 0.2 + 0.1 - 0.2 - 0.1 = 2.8e-17 over its 1e-150
            # capacity once both its VMs have moved: it hosts nothing, so the row
            # gives up there, changed, rather than evict a VM from elsewhere
            # (a capacity much below 1e-150 would make utilizations overflow)
            ([(1e-150, 1e-150), (10, 10), (10, 10)], [(0.1, 0.1), (0.2, 0.2), (5, 5)], [[0, 0, 1]], [True]),
        ],
    )
    def test_named_cases(self, servers, vms, rows, expected):
        assert assert_batch_repair_matches_rows(make_problem(servers, vms), rows) == expected

    def test_evicted_vm_fits_back_by_one_ulp(self):
        p = make_problem([(1.9, 10)], [(0.2, 1), (0.9, 1), (0.8, 1)])
        rows = np.zeros((1, 3), dtype=np.int64)
        loads = batch_loads(p, rows)
        assert loads[0, 0, 0] > 1.9
        assert _repair_rows(p, rows, loads[:2]).tolist() == [True]
        assert rows.tolist() == [[0, 0, 0]]
        placement = Placement((1, 1, 1))
        fixed = repair(p, placement)
        assert fixed == placement and fixed is not placement

    def test_empty_batch(self, split_problem):
        assert assert_batch_repair_matches_rows(split_problem, np.empty((0, 4))) == []

    @settings(max_examples=200)
    @given(case=repair_batches())
    def test_repair_matches_per_row_rule(self, case):
        """``repair`` gives the ``_repair_row`` row, and the input object when nothing changed."""
        problem, rows = case
        for row in rows:
            placement = Placement(tuple(v + 1 for v in row))
            a0 = np.array(row, dtype=np.int64)
            cpu, mem, counts = (arr[0] for arr in batch_loads(problem, a0[None, :]))
            changed = _repair_row(problem, a0, cpu, mem, counts)
            fixed = repair(problem, placement)
            assert fixed.assign == tuple(int(v) + 1 for v in a0)
            assert (fixed is placement) == (not changed)


class TestEvaluateRows:
    def test_batch_matches_single_row_scoring(self):
        """Per row: the repaired row, objectives and scalar of repair + evaluate + scalarize."""
        weights = ScalarWeights()
        rng = np.random.default_rng(21)
        seen = {"feasible": 0, "repaired": 0, "gave_up": 0}
        for _ in range(20):
            p = random_problem(rng)
            rows = rng.integers(0, p.m, (12, p.n))
            # a repaired copy is often feasible, so the batch mixes both kinds
            rows[0] = np.array(repair(p, Placement(tuple(int(v) + 1 for v in rows[1]))).assign) - 1
            before = rows.copy()
            changed, keys, scalars = _evaluate_rows(p, rows, weights)
            repaired = []
            for r, row in enumerate(before):
                placement = Placement(tuple(int(v) + 1 for v in row))
                fixed = repair(p, placement)
                if fixed is not placement:
                    repaired.append(r)
                vector = evaluate(p, fixed)
                assert tuple(int(v) + 1 for v in rows[r]) == fixed.assign
                assert (keys[r, 0], keys[r, 1]) == (vector.utilization, vector.load_balance)
                assert (keys[r, 2], keys[r, 3]) == (vector.active_fraction, vector.feasible)
                assert scalars[r] == scalarize(vector, weights)
                if check_feasible(p, placement)[0]:
                    seen["feasible"] += 1
                else:
                    seen["repaired" if fixed is not placement else "gave_up"] += 1
            # the returned indices are exactly the rows the repair changed
            assert changed.tolist() == repaired
        assert min(seen.values()) > 0, seen


# Literal copies of the engine before evaluation took 0-based rows natively
# and reused per-solve buffers: the references for the bit-for-bit tests.
def _old_batch_loads(problem, rows):
    rows = np.atleast_2d(rows)
    k, n = rows.shape
    m = problem.m
    flat = (rows + np.arange(k)[:, None] * m).ravel()
    size = k * m
    cpu_used = np.bincount(flat, weights=np.broadcast_to(problem.vm_cpu, (k, n)).ravel(), minlength=size)
    mem_used = np.bincount(flat, weights=np.broadcast_to(problem.vm_mem, (k, n)).ravel(), minlength=size)
    counts = np.bincount(flat, minlength=size)
    return cpu_used.reshape(k, m), mem_used.reshape(k, m), counts.reshape(k, m)


def _old_decode0(position, m):
    rounded = np.floor(position + 0.5)
    return np.clip(rounded, 1.0, float(m)).astype(np.int64) - 1


def _old_evaluate_rows(problem, rows, weights):
    cpu_used, mem_used, counts = _old_batch_loads(problem, rows)
    bad = np.flatnonzero(~(
        (cpu_used <= problem.server_cpu).all(axis=1)
        & (mem_used <= problem.server_mem).all(axis=1)
    ))
    if bad.size:
        repaired = rows[bad]
        changed = _repair_rows(problem, repaired, np.array((cpu_used[bad], mem_used[bad])))
        if changed.any():
            idx = bad[changed]
            rows[idx] = repaired[changed]
            cpu_used[idx], mem_used[idx], counts[idx] = _old_batch_loads(problem, rows[idx])
    keys = batch_objectives(problem, np.array((cpu_used, mem_used, counts)))
    return keys, batch_scalarize(keys, weights)


def _old_evaluate(problem, weights, positions):
    rows = _old_decode0(positions, problem.m)
    before = rows.copy()
    keys, scalars = _old_evaluate_rows(problem, rows, weights)
    return _Batch(np.where(rows != before, rows + 1.0, positions), rows, keys, scalars)


def _old_levy(rng, beta, shape):
    u = rng.normal(0.0, _mantegna_sigma(beta), shape)
    v = rng.normal(0.0, 1.0, shape)
    return u / np.abs(v) ** (1.0 / beta)


def assert_same_batch(got: _Batch, expected: _Batch):
    """Every column equal bit for bit, dtypes included."""
    for name, a, b in zip(_Batch._fields, got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert _bits(a) == _bits(b), name


@st.composite
def mixed_batches(draw):
    """A problem and rows that always mix a feasible, a repaired and a given-up row.

    Two equal servers host two big and two small VMs.  Big-small pairs fit;
    two bigs overload a server, and a big fits neither beside the other big
    nor beside both smalls, so piling the bigs on server 1 gives up at once.
    Extra servers are too small for a big VM.  Random rows come on top, and
    the batch is shuffled.
    """
    sizes = []
    for _ in range(2):
        cap = draw(st.integers(3, 20))
        big = draw(st.integers(cap // 2 + 1, cap - 1))
        small = draw(st.integers((cap - big) // 2 + 1, cap - big))
        sizes.append((cap / 2, big / 2, small / 2))
    (cpu, big_cpu, small_cpu), (mem, big_mem, small_mem) = sizes
    extra = [(draw(st.integers(1, int(2 * big_cpu) - 1)) / 2, draw(_SIZES)) for _ in range(draw(st.integers(0, 3)))]
    problem = make_problem(
        [(cpu, mem)] * 2 + extra, [(big_cpu, big_mem)] * 2 + [(small_cpu, small_mem)] * 2
    )
    m = problem.m
    random_rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=4, max_size=4), max_size=6))
    rows = [[0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], *random_rows]
    rows = np.array(draw(st.permutations(rows)), dtype=np.int64)
    return problem, rows, draw(st.integers(0, 2**32 - 1))


def _positions(rows: np.ndarray, seed: int) -> np.ndarray:
    """Positions that decode to ``rows``, with some coordinates outside [1, m] to clip."""
    rng = np.random.default_rng(seed)
    positions = rows + 1.0 + rng.uniform(-0.5, 0.5, rows.shape)
    far = rng.random(rows.shape) < 0.1
    positions[far] = np.where(rows[far] == 0, -3.0, rows[far] + 4.0)
    return positions


class TestInPlaceEngine:
    """The row-native, in-place engine against literal copies of the code it replaced."""

    @settings(max_examples=150)
    @given(case=mixed_batches())
    def test_evaluate_matches_old_snap(self, case):
        problem, rows, seed = case
        weights = ScalarWeights()
        positions = _positions(rows, seed)
        given_positions = positions.copy()
        run = _Run(problem, weights, None)
        # a smaller batch first, so the run's buffers are reused and regrown
        for part in (positions[:2], positions, positions[:1]):
            assert_same_batch(run.evaluate(part), _old_evaluate(problem, weights, part.copy()))
        assert _bits(positions) == _bits(given_positions)

    @settings(max_examples=150)
    @given(case=mixed_batches())
    def test_changed_indices_mix_every_kind(self, case):
        problem, rows, _ = case
        cpu, mem, _ = batch_loads(problem, rows)
        feasible = (cpu <= problem.server_cpu).all(axis=1) & (mem <= problem.server_mem).all(axis=1)
        before = rows.copy()
        changed, _, _ = _evaluate_rows(problem, rows, ScalarWeights())
        moved = np.zeros(len(rows), dtype=bool)
        moved[changed] = True
        assert not (moved & feasible).any()
        assert moved.any() and feasible.any() and (~moved & ~feasible).any()
        assert _bits(rows[~moved]) == _bits(before[~moved])

    @settings(max_examples=150)
    @given(case=mixed_batches())
    def test_evaluate_rows_matches_old_evaluate_of_rows(self, case):
        problem, rows, _ = case
        weights = ScalarWeights()
        run = _Run(problem, weights, None)
        expected = _old_evaluate(problem, weights, rows + 1.0)
        assert_same_batch(run.evaluate(rows), expected)

    def test_levy_matches_two_normal_draws(self):
        for seed in range(300):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            buffer = np.empty((2, 10, 7))
            for _ in range(3):
                expected = _old_levy(old, 1.5, (10, 7))
                steps = _levy(new, buffer)
                assert _bits(steps) == _bits(expected)
            assert new.bit_generator.state == old.bit_generator.state


def _batch(rng: np.random.Generator, scalars: list[float], n: int) -> _Batch:
    """A batch whose every column differs row by row, so any misplaced entry shows."""
    k = len(scalars)
    return _Batch(
        rng.uniform(1.0, 5.0, (k, n)),
        rng.integers(0, 5, (k, n)),
        np.column_stack((rng.uniform(0.0, 1.0, k), rng.uniform(0.0, 1.0, k), rng.uniform(0.0, 1.0, k),
                         rng.random(k) < 0.5)),
        np.array(scalars, dtype=np.float64),
    )


# A few values, signed zeros and non-finite ones included, so ties are common.
_SCALARS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan])


@st.composite
def acceptance_cases(draw):
    pop = draw(st.integers(2, 8))
    targets = draw(st.lists(st.integers(0, pop - 1), min_size=pop, max_size=pop))
    nest_scalars = draw(st.lists(_SCALARS, min_size=pop, max_size=pop))
    prop_scalars = draw(st.lists(_SCALARS, min_size=pop, max_size=pop))
    return pop, np.array(targets, dtype=np.int64), nest_scalars, prop_scalars, draw(st.integers(0, 2**32 - 1))


class TestAccept:
    @settings(max_examples=400)
    @given(case=acceptance_cases())
    def test_matches_sequential_loop(self, case):
        pop, targets, nest_scalars, prop_scalars, seed = case
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        nests, prop = _batch(rng, nest_scalars, n), _batch(rng, prop_scalars, n)
        expected = _Batch(*(column.copy() for column in nests))
        for i in range(pop):
            j = targets[i]
            if prop.scalars[i] < expected.scalars[j]:
                expected.put(j, prop, i)
        _accept(nests, prop, targets)
        assert _bits(*nests) == _bits(*expected)

    def test_no_winner_leaves_nests(self):
        rng = np.random.default_rng(5)
        nests, prop = _batch(rng, [1.0, 0.5, 2.0], 3), _batch(rng, [1.0, 0.5, 2.0], 3)
        before = _bits(*nests)
        _accept(nests, prop, np.array([0, 1, 0]))
        assert _bits(*nests) == before

    def test_first_lowest_wins(self):
        rng = np.random.default_rng(6)
        nests, prop = _batch(rng, [3.0, 3.0, 3.0, 3.0], 2), _batch(rng, [2.0, 1.0, 1.0, 4.0], 2)
        _accept(nests, prop, np.array([2, 2, 2, 0]))
        assert nests.scalars.tolist() == [3.0, 3.0, 1.0, 3.0]
        assert np.array_equal(nests.positions[2], prop.positions[1])


class ListParetoArchive:
    """Reference: the five-parallel-list archive, kept verbatim as the oracle for ``ParetoArchive``."""

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


def _nest_bits(nest: Nest) -> tuple:
    o = nest.objectives
    return (
        nest.position.tobytes(),
        nest.decoded.assign,
        o.utilization.hex(),
        o.load_balance.hex(),
        o.active_fraction.hex(),
        o.feasible,
        nest.scalar.hex(),
        tuple(type(v) for v in (o.utilization, o.load_balance, o.active_fraction, o.feasible, nest.scalar)),
    )


def _entry_batch(entries) -> _Batch:
    """A batch whose rows are the (position, row, objective vector, scalar) ``entries``."""
    positions, rows, vectors, scalars = zip(*entries)
    return _Batch(np.array(positions, dtype=np.float64), np.array(rows, dtype=np.int64),
                  np.array([astuple(v) for v in vectors], dtype=np.float64), np.array(scalars, dtype=np.float64))


def _reference_offer(reference: ListParetoArchive, entries) -> int:
    """Offer ``entries`` one at a time uncapped, then thin: the declared block rule.

    Returns how many of the entries the archive holds before thinning.
    """
    cap, reference.cap = reference.cap, None
    for entry in entries:
        reference.offer(*entry)
    reference.cap = cap
    offered = {entry[0].tobytes() for entry in entries}
    inserted = sum(position.tobytes() in offered for position in reference._positions)
    reference._thin()
    return inserted


# Coarse grids make repeated vectors and ties in nearest-neighbour distance common.
_GRID_VECTORS = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.sampled_from([-0.0, 0.0, 0.25, 0.5]),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.booleans(),
)


class TestParetoArchive:
    @settings(max_examples=300)
    @given(
        cap=st.one_of(st.none(), st.integers(1, 6)),
        batches=st.lists(st.lists(_GRID_VECTORS, min_size=1, max_size=12), max_size=10),
        probes=st.lists(_GRID_VECTORS, min_size=1, max_size=6),
    )
    def test_matches_list_reference(self, cap, batches, probes):
        """A batch equals one-by-one offers uncapped, and those offers then thinned under a cap."""
        archive, reference = ParetoArchive(cap), ListParetoArchive(cap)
        cand = np.array([probe[:3] for probe in probes], dtype=np.float64)
        cand_feas = np.array([probe[3] for probe in probes])
        i = 0
        for vectors in batches:
            entries = []
            for u, lb, af, feas in vectors:
                entries.append((np.array([i + 0.5, -i]), np.array([i, 2 * i]), ObjectiveVector(u, lb, af, feas),
                                u - lb + i))
                i += 1
            inserted = archive.offer(_entry_batch(entries))
            assert type(inserted) is int
            if len(entries) == 1:
                assert inserted == reference.offer(*entries[0])
            else:
                assert inserted == _reference_offer(reference, entries)
            assert len(archive) == len(reference)
            keys = np.column_stack((cand, cand_feas))
            assert archive.rejects(keys).tolist() == reference.rejects(cand, cand_feas).tolist()
            assert [_nest_bits(n) for n in archive.nests()] == [_nest_bits(n) for n in reference.nests()]

    def test_uncapped_batch_spans_blocks(self):
        """A batch of more than ``ARCHIVE_CAP`` rows merges block by block, as one-by-one offers do."""
        rng = np.random.default_rng(3)
        entries = []
        for i in range(3 * cuckoo.ARCHIVE_CAP):
            # distinct points of the plane af = u - lb + 1 trade off; repeats and raised af do not
            u, lb = rng.integers(0, 20) / 20, rng.integers(0, 10) / 10
            vector = ObjectiveVector(u, lb, u - lb + 1.0 + 0.1 * (rng.random() < 0.3), True)
            entries.append((np.array([i + 0.5]), np.array([i]), vector, float(i)))
        archive, reference = ParetoArchive(None), ListParetoArchive(None)
        blocks = range(0, len(entries), cuckoo.ARCHIVE_CAP)
        inserted = sum(_reference_offer(reference, entries[i : i + cuckoo.ARCHIVE_CAP]) for i in blocks)
        assert archive.offer(_entry_batch(entries)) == inserted
        assert len(archive) > cuckoo.ARCHIVE_CAP
        assert [_nest_bits(n) for n in archive.nests()] == [_nest_bits(n) for n in reference.nests()]

    def test_capped_block_is_merged_then_thinned(self):
        """Past the cap, a block is merged before it is thinned, unlike one-by-one offers."""
        a, b = ObjectiveVector(0.0, -0.0, 0.25, True), ObjectiveVector(0.25, -0.0, 0.5, True)
        entries = [(np.array([1.0]), np.array([0]), a, 1.0),
                   (np.array([2.0]), np.array([1]), b, 2.0),
                   (np.array([3.0]), np.array([2]), a, 3.0)]
        archive, one_by_one = ParetoArchive(cap=1), ListParetoArchive(cap=1)
        archive.offer(_entry_batch(entries[:1]))
        # the repeat of A is refused, as A is a member, and thinning then drops A
        assert archive.offer(_entry_batch(entries[1:])) == 1
        assert [n.decoded.assign for n in archive.nests()] == [(2,)]
        for entry in entries:
            one_by_one.offer(*entry)
        assert [n.decoded.assign for n in one_by_one.nests()] == [(3,)]

    def test_mutually_non_dominated(self):
        rng = np.random.default_rng(8)
        p = random_problem(rng)
        result = solve(p, SolverConfig(pop_size=20, max_cycles=40, seed=2))
        objs = [nest.objectives for nest in result.archive]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)

    def test_feasibility_homogeneous(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            p = random_problem(rng)
            result = solve(p, SolverConfig(pop_size=16, max_cycles=30, seed=seed))
            flags = {nest.objectives.feasible for nest in result.archive}
            assert len(flags) == 1

    def test_cap_enforced_with_crowding(self):
        archive = ParetoArchive(cap=5)
        rng = np.random.default_rng(0)
        for _ in range(60):
            u = float(rng.uniform(0, 1))
            # points on a strictly trading-off front so nothing dominates
            vector = ObjectiveVector(u, 0.5 * (1 - u) + 1e-9 * rng.random(), u, True)
            archive.offer(_entry_batch([(np.array([1.0]), np.array([0]), vector, u)]))
        assert len(archive) <= 5

    def test_duplicate_objectives_kept_once(self):
        archive = ParetoArchive(cap=10)
        vector = ObjectiveVector(0.5, 0.1, 0.5, True)
        assert archive.offer(_entry_batch([(np.array([1.0]), np.array([0]), vector, 0.3)]))
        assert not archive.offer(_entry_batch([(np.array([2.0]), np.array([1]), vector, 0.3)]))
        assert len(archive) == 1


class TestSearch:
    """``cuckoo._search``, the loop that LAMOCS, GA and PSO share."""

    @pytest.mark.parametrize("cycles", [0, 1, 3])
    @pytest.mark.parametrize("solver, make_config", [
        (solve, lambda c: SolverConfig(pop_size=6, max_cycles=c, seed=2)),
        (solve_ga, lambda c: GaConfig(pop_size=6, generations=c, seed=2)),
        (solve_pso, lambda c: PsoConfig(pop_size=6, iterations=c, seed=2)),
    ], ids=["lamocs", "ga", "pso"])
    def test_one_evaluate_and_one_record_per_cycle(self, monkeypatch, solver, make_config, cycles):
        """The initial population plus one population per cycle are evaluated, and nothing past the budget."""
        calls = []
        original = cuckoo._evaluate_rows

        def counting(*args, **kwargs):
            calls.append(args[1].shape[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(cuckoo, "_evaluate_rows", counting)
        trace = io.StringIO()
        problem = generate_instance(GeneratorConfig(m=3, n=6, seed=4))
        result = solver(problem, make_config(cycles), trace)
        assert result.cycles_run == len(result.history) == len(trace.getvalue().splitlines()) == cycles
        assert len(calls) == cycles + 1

    @pytest.mark.parametrize("cycles", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["rows", "positions"])
    def test_operator_is_sent_the_evaluate_of_what_it_yields(self, cycles, kind):
        """A stub operator gets ``cycles + 1`` batches, each ``_Run.evaluate`` of its candidates, and no resume after."""
        problem = generate_instance(GeneratorConfig(m=3, n=6, seed=4))
        config = GaConfig(pop_size=5, generations=cycles, seed=2)
        yielded, received, resumed = [], [], []

        def stub(run, rng, config):
            shape = (config.pop_size, problem.n)
            while True:
                if kind == "rows":
                    candidates = rng.integers(0, problem.m, shape)
                else:
                    candidates = rng.uniform(0.0, problem.m + 1.0, shape)
                yielded.append(candidates.copy())
                batch = yield candidates
                received.append(batch.copy())
                yield batch
                resumed.append(len(received))

        result = cuckoo._search(problem, config, cycles, None, stub)
        assert len(yielded) == len(received) == cycles + 1
        assert resumed == list(range(1, cycles + 1))
        assert result.cycles_run == len(result.history) == cycles
        for candidates, batch in zip(yielded, received):
            assert candidates.dtype == (np.int64 if kind == "rows" else np.float64)
            assert_same_batch(batch, _Run(problem, config.weights, None).evaluate(candidates))


class CountingRng:
    """A seeded generator that records the size of each ``standard_normal`` draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normals = []

    def standard_normal(self, *args, **kwargs):
        drawn = self._rng.standard_normal(*args, **kwargs)
        self.normals.append(np.size(drawn))
        return drawn

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestLevyMove:
    """LAMOCS draws Lévy steps only for the coordinates off the best nest."""

    def test_two_normals_per_moving_coordinate(self, monkeypatch):
        """Each cycle draws u and v for its k moving coordinates; the others are proposed at X, bit for bit."""
        problem = random_problem(np.random.default_rng(31), m=4, n=9)
        config = SolverConfig(pop_size=10, max_cycles=15, seed=3)
        rng = CountingRng(config.seed)
        starts, inputs = [], []
        record, run_evaluate = cuckoo._Run.record, cuckoo._Run.evaluate

        def recording(run, batch, *args):
            starts.append((batch.positions.copy(), batch.scalars.copy()))
            return record(run, batch, *args)

        def evaluating(run, positions):
            inputs.append(positions.copy())
            return run_evaluate(run, positions)

        monkeypatch.setattr(cuckoo._Run, "record", recording)
        monkeypatch.setattr(cuckoo._Run, "evaluate", evaluating)
        cuckoo._search(problem, config, config.max_cycles, None, lambda run, _, cfg: cuckoo._lamocs(run, rng, cfg))

        moving = []
        for (X, scalars), candidates in zip(starts, inputs[1:]):
            still = X == X[int(np.argmin(scalars))]
            moving += [still.size - np.count_nonzero(still)] * 2
            proposals = candidates[: config.pop_size]
            assert proposals[still].tobytes() == X[still].tobytes()
        assert rng.normals == moving
        assert sum(moving) < 2 * config.max_cycles * config.pop_size * problem.n

    def test_no_moving_coordinate_draws_no_normal(self):
        """With every nest at one position and no abandonment, no cycle draws a normal and every proposal stays put."""
        problem = random_problem(np.random.default_rng(32), m=3, n=7)
        config = SolverConfig(pop_size=6, max_cycles=5, p_a=0.0, seed=4)
        rng = CountingRng(config.seed)
        proposed = []

        def pinned(run, _, config):
            operator = cuckoo._lamocs(run, rng, config)
            candidates = next(operator)
            candidates[:] = candidates[0]
            while True:
                batch = yield candidates
                yield operator.send(batch)
                candidates = next(operator)
                proposed.append(candidates.copy())

        result = cuckoo._search(problem, config, config.max_cycles, None, pinned)
        assert result.cycles_run == config.max_cycles
        assert rng.normals == [0] * (2 * config.max_cycles)
        assert len(proposed) == config.max_cycles
        for candidates in proposed:
            assert candidates.tobytes() == np.broadcast_to(result.best.position, candidates.shape).tobytes()


class TestSolve:
    def test_single_server_shortcut(self):
        p = make_problem([(10, 16)], [(2, 4), (3, 4)])
        result = solve(p, SolverConfig(pop_size=5, max_cycles=50, seed=0))
        assert result.best.decoded.assign == (1, 1)
        assert result.cycles_run == 0
        assert result.best.objectives.feasible

    def test_finds_split_optimum(self, split_problem):
        result = solve(split_problem, SolverConfig(pop_size=30, max_cycles=100, seed=1))
        oracle = brute_force(split_problem)
        assert result.best.scalar == pytest.approx(oracle.scalar, abs=1e-9)
        assert result.best.objectives.load_balance == pytest.approx(0.0, abs=1e-12)
        assert result.best.objectives.utilization == pytest.approx(1.0, abs=1e-12)

    def test_history_non_increasing(self):
        rng = np.random.default_rng(14)
        for seed in range(3):
            p = random_problem(rng)
            result = solve(p, SolverConfig(pop_size=12, max_cycles=40, seed=seed))
            assert all(a >= b for a, b in zip(result.history, result.history[1:]))
            assert len(result.history) == result.cycles_run

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(15)
        p = random_problem(rng)
        cfg = SolverConfig(pop_size=15, max_cycles=30, seed=7)
        a, b = solve(p, cfg), solve(p, cfg)
        assert a.best.decoded == b.best.decoded
        assert a.best.scalar == b.best.scalar
        assert a.history == b.history
        assert [n.objectives for n in a.archive] == [n.objectives for n in b.archive]

    def test_nest_invariant_and_exact_scalar(self):
        rng = np.random.default_rng(16)
        for seed in range(3):
            p = random_problem(rng)
            cfg = SolverConfig(pop_size=12, max_cycles=25, seed=seed)
            result = solve(p, cfg)
            for nest in (result.best, *result.archive):
                assert decode(nest.position, p.m) == nest.decoded
                assert nest.scalar == scalarize(evaluate(p, nest.decoded), cfg.weights)

    def test_best_prefers_feasible(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            p = random_problem(rng)
            result = solve(p, SolverConfig(pop_size=12, max_cycles=30, seed=seed))
            any_feasible = any(n.objectives.feasible for n in result.archive)
            if any_feasible:
                assert result.best.objectives.feasible

    def test_ablation_configs_run(self, split_problem):
        for kwargs in (
            {"la_fraction": 0.0},
            {"penalty_b": 0.0},
            {"p_a": 1.0},
        ):
            result = solve(split_problem, SolverConfig(pop_size=8, max_cycles=15, seed=3, **kwargs))
            assert result.cycles_run == 15

    def test_trace_jsonl(self, split_problem):
        buf = io.StringIO()
        result = solve(split_problem, SolverConfig(pop_size=8, max_cycles=12, seed=0), trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == result.cycles_run
        for i, line in enumerate(lines):
            entry = json.loads(line)
            assert entry["cycle"] == i + 1
            assert set(entry) == {"cycle", "best_scalar", "archive_size"}
        scalars = [json.loads(line)["best_scalar"] for line in lines]
        assert scalars == sorted(scalars, reverse=True) or all(
            a >= b for a, b in zip(scalars, scalars[1:])
        )

    def test_non_finite_levy_steps(self, monkeypatch):
        """An infinite step clips to 1 or m and a NaN step stays put; a zero distance draws no step and stays put."""

        def levy(rng, out):
            # one step per moving coordinate, in flat order
            steps = _levy(rng, out)
            steps[0::3] = np.inf
            steps[1::3] = np.nan  # u == v == 0
            return steps

        inputs, outputs = [], []
        run_evaluate = cuckoo._Run.evaluate

        def recorded(run, positions):
            batch = run_evaluate(run, positions)
            inputs.append(positions.copy())
            outputs.append((batch.positions.copy(), batch.scalars.copy()))
            return batch

        monkeypatch.setattr(cuckoo, "_levy", levy)
        monkeypatch.setattr(cuckoo._Run, "evaluate", recorded)
        p = random_problem(np.random.default_rng(18), m=4, n=9)
        cfg = SolverConfig(pop_size=10, max_cycles=20, seed=2)
        result = solve(p, cfg)
        assert result.cycles_run == 20
        assert result.best.scalar == scalarize(evaluate(p, result.best.decoded), cfg.weights)

        X, scalars = outputs[0]
        gbest = np.broadcast_to(X[int(np.argmin(scalars))], X.shape).ravel()
        X, proposals = X.ravel(), inputs[1][: cfg.pop_size].ravel()
        moving = np.flatnonzero(X != gbest)
        infinite, nan, still = moving[0::3], moving[1::3], np.flatnonzero(X == gbest)
        assert infinite.size and nan.size and still.size
        expected = np.where(X[infinite] > gbest[infinite], float(p.m), 1.0)
        assert np.array_equal(proposals[infinite], expected)
        assert np.array_equal(proposals[nan], X[nan])
        assert np.array_equal(proposals[still], X[still])
        assert np.isfinite(np.concatenate(inputs)).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(pop_size=1)
        with pytest.raises(ValueError):
            SolverConfig(p_a=1.5)
        with pytest.raises(ValueError):
            SolverConfig(la_fraction=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(levy_scale=0.0)
        # the bank's and the step's settings are checked here, before any output is opened
        for field, value in (
            ("reward_a", 0.0), ("reward_a", 1.0), ("reward_a", 1.5), ("reward_a", math.nan),
            ("penalty_b", -0.1), ("penalty_b", 1.0), ("penalty_b", math.nan),
            ("levy_scale", math.nan), ("levy_scale", math.inf),
        ):
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{field: value})
