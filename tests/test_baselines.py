import itertools

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
    brute_force,
    check_feasible,
    decode,
    dominates,
    evaluate,
    generate_instance,
    scalarize,
    solve_ffd,
    solve_ga,
    solve_pso,
)

from vmplace.baselines import PSO_C1, PSO_C2, PSO_INERTIA, _pso_move

from conftest import make_problem, random_problem


class TestPsoMove:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 9), shape=st.tuples(st.integers(1, 6), st.integers(1, 8)))
    def test_matches_old_expression(self, seed, m, shape):
        """Bit for bit the update it replaced, clamps of V and X included."""
        rng = np.random.default_rng(seed)
        v_max = 0.5 * (m - 1)
        X = rng.uniform(1.0, float(m), shape)
        V = rng.uniform(-1.5 * v_max, 1.5 * v_max, shape)
        pbest_X = rng.uniform(1.0, float(m), shape)
        gbest = rng.uniform(1.0, float(m), shape[1])
        r1, r2 = rng.random(shape), rng.random(shape)

        V_old = PSO_INERTIA * V + PSO_C1 * r1 * (pbest_X - X) + PSO_C2 * r2 * (gbest - X)
        np.clip(V_old, -v_max, v_max, out=V_old)
        X_old = np.clip(X + V_old, 1.0, float(m))

        _pso_move(X, V, pbest_X, gbest, r1, r2, np.empty(shape), v_max, m)
        assert X.tobytes() == X_old.tobytes()
        assert V.tobytes() == V_old.tobytes()


class TestGa:
    def test_single_server_shortcut(self):
        p = make_problem([(10, 16)], [(2, 4), (3, 4)])
        result = solve_ga(p, GaConfig(pop_size=6, generations=30, seed=0))
        assert result.best.decoded.assign == (1, 1)
        assert result.cycles_run == 0

    def test_finds_split_optimum(self, split_problem):
        result = solve_ga(split_problem, GaConfig(pop_size=40, generations=120, seed=5))
        oracle = brute_force(split_problem)
        assert result.best.scalar == pytest.approx(oracle.scalar, abs=1e-9)

    def test_history_non_increasing_with_elitism(self):
        rng = np.random.default_rng(23)
        for seed in range(3):
            p = random_problem(rng)
            result = solve_ga(p, GaConfig(pop_size=12, generations=40, seed=seed))
            assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(24)
        p = random_problem(rng)
        cfg = GaConfig(pop_size=14, generations=25, seed=9)
        a, b = solve_ga(p, cfg), solve_ga(p, cfg)
        assert a.best.decoded == b.best.decoded
        assert a.history == b.history

    def test_exact_scalar_reevaluation(self):
        rng = np.random.default_rng(25)
        p = random_problem(rng)
        cfg = GaConfig(pop_size=10, generations=20, seed=1)
        result = solve_ga(p, cfg)
        assert result.best.scalar == scalarize(evaluate(p, result.best.decoded), cfg.weights)
        assert decode(result.best.position, p.m) == result.best.decoded

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(pop_size=1)


class TestPso:
    def test_single_server_shortcut(self):
        p = make_problem([(10, 16)], [(2, 4), (3, 4)])
        result = solve_pso(p, PsoConfig(pop_size=6, iterations=30, seed=0))
        assert result.best.decoded.assign == (1, 1)

    def test_finds_split_optimum(self, split_problem):
        result = solve_pso(split_problem, PsoConfig(pop_size=40, iterations=120, seed=3))
        oracle = brute_force(split_problem)
        assert result.best.scalar == pytest.approx(oracle.scalar, abs=1e-9)

    def test_history_non_increasing(self):
        rng = np.random.default_rng(31)
        for seed in range(3):
            p = random_problem(rng)
            result = solve_pso(p, PsoConfig(pop_size=12, iterations=40, seed=seed))
            assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(32)
        p = random_problem(rng)
        cfg = PsoConfig(pop_size=14, iterations=25, seed=9)
        a, b = solve_pso(p, cfg), solve_pso(p, cfg)
        assert a.best.decoded == b.best.decoded
        assert a.history == b.history

    def test_exact_scalar_reevaluation(self):
        rng = np.random.default_rng(33)
        p = random_problem(rng)
        cfg = PsoConfig(pop_size=10, iterations=20, seed=2)
        result = solve_pso(p, cfg)
        assert result.best.scalar == scalarize(evaluate(p, result.best.decoded), cfg.weights)
        assert decode(result.best.position, p.m) == result.best.decoded


class TestFfd:
    def test_split_instance_exact_fill(self, split_problem):
        placement = solve_ffd(split_problem)
        assert placement.assign == (1, 1, 2, 2)
        assert check_feasible(split_problem, placement)[0]

    def test_single_vm_goes_first_fit(self):
        p = make_problem([(10, 10), (10, 10)], [(3, 3), (1, 1)])
        assert solve_ffd(p).assign[0] == 1

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        p = random_problem(rng)
        assert solve_ffd(p) == solve_ffd(p)

    def test_overflow_goes_to_max_slack_server(self):
        p = make_problem([(4, 4), (6, 6)], [(5, 5), (5, 5)])
        placement = solve_ffd(p)
        # first VM fits only server 2; second fits nowhere and lands on the
        # emptier server 1 by slack
        assert placement.assign == (2, 1)
        assert not check_feasible(p, placement)[0]

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_feasible_when_room_is_generous(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        servers = [(20.0, 20.0)] * m
        vms = [(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4))) for _ in range(m + 2)]
        p = make_problem(servers, vms)
        assert check_feasible(p, solve_ffd(p))[0]


class TestBruteForce:
    def test_split_instance_exact_values(self, split_problem):
        w = ScalarWeights()
        result = brute_force(split_problem, w)
        assert result.objectives.utilization == 1.0
        assert result.objectives.load_balance == 0.0
        assert result.objectives.feasible
        assert result.scalar == w.w_active  # (1-u) and lb terms vanish

    def test_enumerates_all_feasible_splits(self, split_problem):
        result = brute_force(split_problem)
        # every 2-2 split shares one objective vector, kept once
        assert len(result.pareto) == 1
        placement, objs = result.pareto[0]
        assert objs.feasible
        assert sorted(placement.assign) == [1, 1, 2, 2]

    def test_single_vm_picks_better_server(self):
        p = make_problem([(10, 10), (2, 2)], [(2, 2)])
        result = brute_force(p)
        expected = min(
            (Placement((1,)), Placement((2,))),
            key=lambda s: scalarize(evaluate(p, s), ScalarWeights()),
        )
        assert result.best == expected

    @pytest.mark.parametrize("penalty, scalar, feasible", [(1e-6, -0.3085708794983644, False), (10.0, 0.4635656606480487, True)])
    def test_reports_scalar_best_feasible_or_not(self, penalty, scalar, feasible):
        """The first minimum of an explicit enumeration, even when it overloads a server."""
        p = generate_instance(GeneratorConfig(m=3, n=6, demand_floor_ratio=0.3, seed=4))
        w = ScalarWeights(infeasibility_penalty=penalty)
        scores = {}
        for assign in itertools.product(range(1, 4), repeat=6):
            scores[Placement(assign)] = scalarize(evaluate(p, Placement(assign)), w)
        best = min(scores, key=scores.get)
        result = brute_force(p, w)
        assert (result.best, result.scalar) == (best, scores[best])
        assert result.scalar == pytest.approx(scalar, abs=1e-12)
        assert result.objectives == evaluate(p, best)
        assert result.objectives.feasible is feasible

    def test_guard_rejects_large_instances(self):
        p = make_problem([(10, 10)] * 3, [(1, 1)] * 15)
        with pytest.raises(ValueError):
            brute_force(p)  # 3^15 > 10^7

    def test_pareto_set_mutually_non_dominated(self):
        rng = np.random.default_rng(51)
        p = random_problem(rng, m=2, n=5)
        result = brute_force(p)
        for i, (_, a) in enumerate(result.pareto):
            for j, (_, b) in enumerate(result.pareto):
                if i != j:
                    assert not dominates(a, b)

    def test_scalar_optimum_bounds_heuristics(self):
        from vmplace import SolverConfig, solve

        rng = np.random.default_rng(52)
        for _ in range(3):
            p = random_problem(rng, m=2, n=5)
            oracle = brute_force(p)
            for result in (
                solve(p, SolverConfig(pop_size=10, max_cycles=15, seed=1)),
                solve_ga(p, GaConfig(pop_size=10, generations=15, seed=1)),
                solve_pso(p, PsoConfig(pop_size=10, iterations=15, seed=1)),
            ):
                assert result.best.scalar >= oracle.scalar - 1e-9
            ffd_scalar = scalarize(evaluate(p, solve_ffd(p)), ScalarWeights())
            assert ffd_scalar >= oracle.scalar - 1e-9
