import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import (
    ObjectiveVector,
    Placement,
    ScalarWeights,
    Violation,
    check_feasible,
    dominates,
    evaluate,
    scalarize,
)
from vmplace.objectives import _fits, _slack, _utilization, _vector, batch_loads, batch_objectives, batch_scalarize

from conftest import make_problem, random_problem


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def placed(servers, vms, assign, alpha=0.5, beta=0.5):
    """A problem and a 1-based placement of its VMs."""
    return make_problem(servers, vms, alpha, beta), Placement(tuple(assign))


def legacy_check_feasible(problem, placement):
    """The former per-server loop of ``check_feasible``, kept as its reference."""
    a0 = np.asarray(placement.assign, dtype=np.int64) - 1
    cpu_used, mem_used, _ = batch_loads(problem, a0[None, :])
    violations = []
    for j in range(problem.m):
        if cpu_used[0, j] > problem.servers[j].cpu:
            violations.append(Violation(j + 1, "cpu", float(cpu_used[0, j] - problem.servers[j].cpu)))
        if mem_used[0, j] > problem.servers[j].mem:
            violations.append(Violation(j + 1, "mem", float(mem_used[0, j] - problem.servers[j].mem)))
    return (not violations, violations)


def legacy_dominates(a, b):
    """The former scalar ``dominates``, kept as its reference."""
    if a.feasible != b.feasible:
        return a.feasible
    at_least = (
        a.utilization >= b.utilization
        and a.load_balance <= b.load_balance
        and a.active_fraction <= b.active_fraction
    )
    strictly = (
        a.utilization > b.utilization
        or a.load_balance < b.load_balance
        or a.active_fraction < b.active_fraction
    )
    return at_least and strictly


def legacy_scalarize(objs, weights):
    """The former scalar ``scalarize``, kept as its reference."""
    base = (
        weights.w_util * (1.0 - objs.utilization)
        + weights.w_lb * objs.load_balance
        + weights.w_active * objs.active_fraction
    )
    return base + (0.0 if objs.feasible else weights.infeasibility_penalty)


# Half-integer sizes make loads sum exactly onto a capacity; arbitrary
# floats give loads that carry rounding error.
_SIZES = st.one_of(st.integers(1, 16).map(lambda k: k / 2), st.floats(0.1, 9.0))


# Literal copies of the two-resource rules that took cpu and mem loads apart,
# before every rule took one stacked (2, ..., m) load.
def legacy_batch_loads(problem, rows):
    rows = np.atleast_2d(rows)
    k, n = rows.shape
    m = problem.m
    flat = (rows + np.arange(k)[:, None] * m).ravel()
    size = k * m
    cpu_used = np.bincount(flat, weights=np.tile(problem.vm_cpu, (k, 1)).ravel(), minlength=size)
    mem_used = np.bincount(flat, weights=np.tile(problem.vm_mem, (k, 1)).ravel(), minlength=size)
    counts = np.bincount(flat, minlength=size)
    return cpu_used.reshape(k, m), mem_used.reshape(k, m), counts.reshape(k, m)


def legacy_fits(problem, cpu, mem):
    return np.array((cpu <= problem.server_cpu, mem <= problem.server_mem))


def legacy_utilization(problem, cpu, mem):
    return problem.alpha * cpu / problem.server_cpu + problem.beta * mem / problem.server_mem


def legacy_slack(problem, cpu, mem):
    mean_cpu, mean_mem = float(problem.server_cpu.mean()), float(problem.server_mem.mean())
    return (
        problem.alpha * (problem.server_cpu - cpu) / mean_cpu
        + problem.beta * (problem.server_mem - mem) / mean_mem
    )


@st.composite
def load_batches(draw):
    """A problem with drawn resource weights and a batch of 0-based rows."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    servers = [(draw(_SIZES), draw(_SIZES)) for _ in range(m)]
    vms = [(draw(_SIZES), draw(_SIZES)) for _ in range(n)]
    alpha = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0))
    rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n), min_size=1, max_size=8))
    return make_problem(servers, vms, alpha, 1.0 - alpha), np.array(rows, dtype=np.int64)


@st.composite
def placements(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    servers = [(draw(_SIZES), draw(_SIZES)) for _ in range(m)]
    vms = [(draw(_SIZES), draw(_SIZES)) for _ in range(n)]
    assign = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    return make_problem(servers, vms), Placement(tuple(assign))


# Few distinct values, so that vectors tie on some criteria and not others.
_CRITERION = st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5])
_VECTORS = st.builds(ObjectiveVector, _CRITERION, _CRITERION, _CRITERION, st.booleans())


class TestLegacyReference:
    @settings(max_examples=300)
    @given(case=placements())
    def test_check_feasible_matches_loop(self, case):
        ok, violations = check_feasible(*case)
        ref_ok, ref_violations = legacy_check_feasible(*case)
        assert ok is ref_ok
        assert [(v.server, v.resource) for v in violations] == [(v.server, v.resource) for v in ref_violations]
        assert [v.excess.hex() for v in violations] == [v.excess.hex() for v in ref_violations]
        assert all(type(v.excess) is float for v in violations)

    def test_check_feasible_at_and_over_capacity(self):
        # server 1 exactly full, server 2 over on both resources by 0.5 and 1
        p, s = placed([(4, 4), (4, 4)], [(2.5, 1.5), (1.5, 2.5), (4.5, 5)], (1, 1, 2))
        assert check_feasible(p, s) == legacy_check_feasible(p, s) == (False, [(2, "cpu", 0.5), (2, "mem", 1.0)])

    @settings(max_examples=300)
    @given(case=load_batches())
    def test_stacked_rules_match_two_resource_rules(self, case):
        problem, rows = case
        loads = batch_loads(problem, rows)
        cpu, mem, counts = legacy_batch_loads(problem, rows)
        assert loads.shape == (3, len(rows), problem.m)
        assert _bits(loads[0], loads[1]) == _bits(cpu, mem)
        assert loads[2].tolist() == counts.tolist()
        # the batch, each row alone, and a load exactly at capacity
        cases = [(loads[:2], cpu, mem), *((loads[:2, r], cpu[r], mem[r]) for r in range(len(rows)))]
        cases.append((problem.capacity.copy(), problem.server_cpu.copy(), problem.server_mem.copy()))
        for load, cpu_load, mem_load in cases:
            assert _bits(_fits(problem, load)) == _bits(legacy_fits(problem, cpu_load, mem_load))
            assert _bits(_utilization(problem, load)) == _bits(legacy_utilization(problem, cpu_load, mem_load))
            assert _bits(_slack(problem, load)) == _bits(legacy_slack(problem, cpu_load, mem_load))
        # the former per-resource demand measure
        mean_cpu, mean_mem = float(problem.server_cpu.mean()), float(problem.server_mem.mean())
        measure = problem.alpha * problem.vm_cpu / mean_cpu + problem.beta * problem.vm_mem / mean_mem
        assert _bits(problem.vm_demand_measure) == _bits(measure)

    @settings(max_examples=500)
    @given(a=_VECTORS, b=_VECTORS)
    def test_dominates_matches_scalar_rule(self, a, b):
        assert dominates(a, b) is legacy_dominates(a, b)
        assert dominates(a, a) is legacy_dominates(a, a) is False

    @settings(max_examples=300)
    @given(objs=_VECTORS, w_util=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0), penalty=st.floats(0.5, 100.0))
    def test_scalarize_matches_scalar_rule(self, objs, w_util, share, penalty):
        w_lb = (1.0 - w_util) * share
        weights = ScalarWeights(w_util, w_lb, 1.0 - w_util - w_lb, penalty)
        score = scalarize(objs, weights)
        assert type(score) is float
        assert score.hex() == legacy_scalarize(objs, weights).hex()


class TestServerLoads:
    def test_single_server_example(self, one_server_problem):
        # cpu alone (alpha = 1) and mem alone (beta = 1) read back the totals 5 and 8
        servers, vms = [(10, 16)], [(2, 4), (3, 4)]
        assert evaluate(*placed(servers, vms, (1, 1), 1.0, 0.0)).utilization == 5.0 / 10.0
        assert evaluate(*placed(servers, vms, (1, 1), 0.0, 1.0)).utilization == 8.0 / 16.0
        objs = evaluate(one_server_problem, Placement((1, 1)))
        assert objs.utilization == pytest.approx(0.5, abs=1e-12)
        assert objs.active_fraction == 1.0

    def test_empty_server_inactive(self, split_problem):
        objs = evaluate(split_problem, Placement((1, 1, 1, 1)))
        # the empty server counts neither in the mean nor as active
        assert objs.utilization == pytest.approx(2.0, abs=1e-12)
        assert objs.load_balance == 0.0
        assert objs.active_fraction == 0.5

    def test_full_server_utilization_one(self):
        p, s = placed([(4, 6)], [(4, 6)], (1,))
        assert evaluate(p, s).utilization == pytest.approx(1.0, abs=1e-12)


class TestEvalFunctions:
    def test_utilization_mean(self):
        assert evaluate(*placed([(10, 10)] * 2, [(5, 5)] * 2, (1, 2))).utilization == pytest.approx(0.5)
        assert evaluate(*placed([(10, 10)] * 4, [(10, 10)], (1,))).utilization == pytest.approx(1.0)

    def test_load_balance_values(self):
        assert evaluate(*placed([(10, 10)] * 2, [(5, 5)] * 2, (1, 2))).load_balance == 0.0
        lb = evaluate(*placed([(10, 10)] * 2, [(2, 2), (8, 8)], (1, 2))).load_balance
        assert lb == pytest.approx(0.3, abs=1e-12)
        assert evaluate(*placed([(10, 10)], [(7, 7)], (1,))).load_balance == 0.0

    def test_active_fraction(self):
        assert evaluate(*placed([(10, 10)] * 4, [(1, 1), (2, 2)], (1, 2))).active_fraction == 0.5
        assert evaluate(*placed([(10, 10)], [(1, 1)], (1,))).active_fraction == 1.0

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**31))
    def test_active_servers_match_distinct_hosts(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, m=int(rng.integers(1, 40)), n=int(rng.integers(1, 60)))
        s = Placement(tuple(int(v) for v in rng.integers(1, p.m + 1, p.n)))
        assert round(evaluate(p, s).active_fraction * p.m) == len(set(s.assign))

    def test_active_servers_round_trip(self):
        # the reports count hosting servers as round(active_fraction * m)
        for m in range(1, 301):
            for k in range(1, m + 1):
                assert round(float(np.int64(k) / m) * m) == k


class TestCheckFeasible:
    def test_overload_reports_violation(self):
        p = make_problem([(10, 100)], [(12, 1)])
        ok, violations = check_feasible(p, Placement((1,)))
        assert not ok
        assert violations == [(1, "cpu", pytest.approx(2.0))]

    def test_exact_fill_is_feasible(self):
        p = make_problem([(10, 10)], [(4, 4), (6, 6)])
        ok, violations = check_feasible(p, Placement((1, 1)))
        assert ok and violations == []

    def test_both_resources_reported(self):
        p = make_problem([(10, 10), (10, 10)], [(11, 12), (1, 1)])
        ok, violations = check_feasible(p, Placement((1, 2)))
        assert not ok
        assert [(v.server, v.resource) for v in violations] == [(1, "cpu"), (1, "mem")]


class TestEvaluate:
    def test_composition_example(self, one_server_problem):
        objs = evaluate(one_server_problem, Placement((1, 1)))
        assert objs.utilization == pytest.approx(0.5, abs=1e-12)
        assert objs.load_balance == 0.0
        assert objs.active_fraction == 1.0
        assert objs.feasible

    def test_pure(self, split_problem):
        s = Placement((1, 2, 1, 2))
        assert evaluate(split_problem, s) == evaluate(split_problem, s)

    def test_feasibility_flag_matches_check(self, split_problem):
        rng = np.random.default_rng(11)
        for _ in range(30):
            s = Placement(tuple(int(v) for v in rng.integers(1, 3, split_problem.n)))
            assert evaluate(split_problem, s).feasible == check_feasible(split_problem, s)[0]

    def test_rejects_out_of_range(self, split_problem):
        with pytest.raises(ValueError):
            evaluate(split_problem, Placement((1, 2, 3, 1)))


class TestBatchPath:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**31))
    def test_batch_rows_match_single_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        rows = rng.integers(0, p.m, (8, p.n))
        keys = batch_objectives(p, batch_loads(p, rows))
        scalars = batch_scalarize(keys, ScalarWeights())
        for i in range(rows.shape[0]):
            placement = Placement(tuple(int(v) + 1 for v in rows[i]))
            single = evaluate(p, placement)
            assert keys[i, 0] == single.utilization
            assert keys[i, 1] == single.load_balance
            assert keys[i, 2] == single.active_fraction
            assert bool(keys[i, 3]) == single.feasible
            assert scalars[i] == scalarize(single, ScalarWeights())

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31), headroom=st.sampled_from([1.0, 1.1, 1.5]))
    def test_key_rows_are_the_evaluate_vectors(self, seed, headroom):
        """Every key row of a batch mixing feasible and overloaded rows reads back as ``evaluate``'s vector."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        vms = rng.uniform(0.5, 6.0, (int(rng.integers(m, 3 * m + 1)), 2))
        spread = np.arange(len(vms))[None, :] % m
        # Servers are sized to the round-robin row's loads, so that row fits (at
        # headroom 1.0 exactly at capacity).  Piled on the server of least cpu
        # load, the VMs need at least m >= 2 times that load: above its capacity.
        loads = batch_loads(make_problem([(1.0, 1.0)] * m, vms), spread)[:2, 0]
        p = make_problem(headroom * loads.T, vms)
        piled = np.full_like(spread, np.argmin(loads[0]))
        rows = np.concatenate((spread, piled, rng.integers(0, m, (6, len(vms)))))
        keys = batch_objectives(p, batch_loads(p, rows))
        assert set(keys[:, 3].tolist()) == {0.0, 1.0}
        for row, key in zip(rows, keys):
            assert _vector(key) == evaluate(p, Placement.from_row(row))

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**31))
    def test_list_ops_agree_with_evaluate(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        s = Placement(tuple(int(v) for v in rng.integers(1, p.m + 1, p.n)))
        # per-server reference in plain Python
        cpu, mem = [0.0] * p.m, [0.0] * p.m
        for vm, server in zip(p.vms, s.assign):
            cpu[server - 1] += vm.cpu
            mem[server - 1] += vm.mem
        utils = [
            p.alpha * c / srv.cpu + p.beta * mm / srv.mem
            for c, mm, srv, j in zip(cpu, mem, p.servers, range(1, p.m + 1))
            if j in s.assign
        ]
        objs = evaluate(p, s)
        assert objs.utilization == pytest.approx(np.mean(utils), abs=1e-12)
        assert objs.load_balance == pytest.approx(np.std(utils), abs=1e-12)
        assert objs.active_fraction == len(utils) / p.m

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**31))
    def test_server_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        perm = rng.permutation(p.m)
        relabeled = make_problem(
            [(p.servers[j].cpu, p.servers[j].mem) for j in perm],
            [(v.cpu, v.mem) for v in p.vms],
        )
        assign = rng.integers(0, p.m, p.n)
        inverse = np.empty(p.m, dtype=int)
        inverse[perm] = np.arange(p.m)
        original = evaluate(p, Placement(tuple(int(v) + 1 for v in assign)))
        mirrored = evaluate(relabeled, Placement(tuple(int(inverse[v]) + 1 for v in assign)))
        assert mirrored.utilization == pytest.approx(original.utilization, abs=1e-12)
        assert mirrored.load_balance == pytest.approx(original.load_balance, abs=1e-12)
        assert mirrored.active_fraction == original.active_fraction
        assert mirrored.feasible == original.feasible


def vec(u, lb, af, feas=True):
    return ObjectiveVector(u, lb, af, feas)


class TestDominates:
    def test_examples(self):
        assert dominates(vec(0.9, 0.1, 0.5), vec(0.8, 0.2, 0.5))
        assert not dominates(vec(0.9, 0.3, 0.5), vec(0.8, 0.2, 0.5))
        assert dominates(vec(0.1, 0.9, 1.0, True), vec(0.99, 0.0, 0.1, False))

    def test_equal_vectors_do_not_dominate(self):
        a = vec(0.5, 0.2, 0.4)
        assert not dominates(a, a)

    @settings(max_examples=60)
    @given(
        u1=st.floats(0, 1), lb1=st.floats(0, 0.5), af1=st.floats(0, 1), f1=st.booleans(),
        u2=st.floats(0, 1), lb2=st.floats(0, 0.5), af2=st.floats(0, 1), f2=st.booleans(),
    )
    def test_irreflexive_and_asymmetric(self, u1, lb1, af1, f1, u2, lb2, af2, f2):
        a, b = vec(u1, lb1, af1, f1), vec(u2, lb2, af2, f2)
        assert not dominates(a, a)
        assert not (dominates(a, b) and dominates(b, a))


class TestScalarize:
    def test_perfect_point(self):
        w = ScalarWeights()
        assert scalarize(vec(1.0, 0.0, 0.0), w) == 0.0

    def test_equal_weight_example(self):
        w = ScalarWeights()
        assert scalarize(vec(0.5, 0.3, 0.5), w) == pytest.approx(1.3 / 3.0, abs=1e-12)

    def test_infeasibility_adds_flat_penalty(self):
        w = ScalarWeights()
        feasible = scalarize(vec(0.5, 0.3, 0.5, True), w)
        infeasible = scalarize(vec(0.5, 0.3, 0.5, False), w)
        assert infeasible == feasible + w.infeasibility_penalty

    def test_monotone_in_each_objective(self):
        w = ScalarWeights()
        base = vec(0.5, 0.2, 0.5)
        assert scalarize(vec(0.6, 0.2, 0.5), w) < scalarize(base, w)
        assert scalarize(vec(0.5, 0.3, 0.5), w) > scalarize(base, w)
        assert scalarize(vec(0.5, 0.2, 0.6), w) > scalarize(base, w)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ScalarWeights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ScalarWeights(-0.2, 0.6, 0.6)
        with pytest.raises(ValueError):
            ScalarWeights(infeasibility_penalty=0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            # NaN fails every comparison, so the sum check alone lets it through
            dict(w_util=math.nan, w_lb=0.5, w_active=0.5),
            dict(w_util=0.5, w_lb=math.nan, w_active=0.5),
            dict(w_util=math.inf, w_lb=0.0, w_active=0.0),
            dict(infeasibility_penalty=math.inf),
            dict(infeasibility_penalty=math.nan),
        ],
    )
    def test_weights_must_be_finite(self, fields):
        with pytest.raises(ValueError, match="finite"):
            ScalarWeights(**fields)


class TestFeasibleBounds:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**31))
    def test_feasible_utilization_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        s = Placement(tuple(int(v) for v in rng.integers(1, p.m + 1, p.n)))
        objs = evaluate(p, s)
        if objs.feasible:
            assert 0.0 <= objs.utilization <= 1.0
            assert 0.0 <= objs.load_balance <= 0.5
        assert 0.0 < objs.active_fraction <= 1.0
