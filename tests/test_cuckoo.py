import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import (
    Placement,
    ScalarWeights,
    SolverConfig,
    check_feasible,
    decode,
    dominates,
    evaluate,
    repair,
    scalarize,
    solve,
)
from vmplace.baselines import brute_force
from vmplace.cuckoo import ParetoArchive, _levy, _mantegna_sigma

from conftest import make_problem, random_problem


class TestDecode:
    def test_examples(self):
        assert decode([2.4, 1.0, 7.9], 3).assign == (2, 1, 3)
        assert decode([1.5], 3).assign == (2,)
        assert decode([2.5], 3).assign == (3,)
        assert decode([1.0, 2.0, 3.0], 3).assign == (1, 2, 3)

    def test_clamps_out_of_range(self):
        assert decode([-4.0, 99.0], 5).assign == (1, 5)

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

            def normal(self, loc, scale, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls == 1 else np.ones(shape)

        steps = _levy(StubRng(), 1.5, (4,))
        assert np.all(steps == 0.0)

    def test_deterministic_for_seed(self):
        a = _levy(np.random.default_rng(3), 1.5, (100,))
        b = _levy(np.random.default_rng(3), 1.5, (100,))
        assert np.array_equal(a, b)

    def test_symmetric_and_heavy_tailed(self):
        steps = _levy(np.random.default_rng(42), 1.5, (100_000,))
        stderr = steps.std() / math.sqrt(steps.size)
        assert abs(steps.mean()) < 3 * stderr
        z = (steps - steps.mean()) / steps.std()
        kurtosis = np.mean(z**4) - 3.0
        assert kurtosis > 0.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            _levy(np.random.default_rng(0), 1.0, (4,))
        with pytest.raises(ValueError):
            _levy(np.random.default_rng(0), 2.5, (4,))


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


class TestParetoArchive:
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
            from vmplace.objectives import ObjectiveVector

            vector = ObjectiveVector(u, 0.5 * (1 - u) + 1e-9 * rng.random(), u, True)
            archive.offer(np.array([1.0]), np.array([0]), vector, u)
        assert len(archive) <= 5

    def test_duplicate_objectives_kept_once(self):
        from vmplace.objectives import ObjectiveVector

        archive = ParetoArchive(cap=10)
        vector = ObjectiveVector(0.5, 0.1, 0.5, True)
        assert archive.offer(np.array([1.0]), np.array([0]), vector, 0.3)
        assert not archive.offer(np.array([2.0]), np.array([1]), vector, 0.3)
        assert len(archive) == 1


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
            {"la_applies_to": "regenerated"},
            {"abandon_strategy": "random"},
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(pop_size=1)
        with pytest.raises(ValueError):
            SolverConfig(p_a=1.5)
        with pytest.raises(ValueError):
            SolverConfig(levy_beta=1.0)
        with pytest.raises(ValueError):
            SolverConfig(la_applies_to="sometimes")
        with pytest.raises(ValueError):
            SolverConfig(la_fraction=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(levy_scale=0.0)
