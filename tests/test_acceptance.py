"""End-to-end acceptance suite.

Each check prints one [PASS]/[FAIL] line with its measured numbers
(bypassing capture), so a full run doubles as a release checklist.
The default benchmark sweep is expensive and shared by three checks;
it runs once per module.
"""

import csv
import json
import time

import numpy as np
import pytest

from conftest import make_problem
from vmplace import (
    Automaton,
    GaConfig,
    GeneratorConfig,
    PsoConfig,
    SolverConfig,
    brute_force,
    check_feasible,
    evaluate,
    generate_instance,
    init_bank,
    penalize,
    reward,
    solve,
    solve_ga,
    solve_pso,
)
from vmplace.bench import SweepConfig, derive_seed, run_sweep
from vmplace.cli import main


def report(capsys, name: str, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    cfg = SweepConfig()
    start = time.perf_counter()
    records = run_sweep(cfg)
    return cfg, records, time.perf_counter() - start


def test_01_simplex_preserved_under_random_updates(capsys):
    rng = np.random.default_rng(404)
    ops_per_size = 33_334
    worst_dev = 0.0
    lowest_entry = 1.0
    start = time.perf_counter()
    for m in (2, 5, 50):
        auto = init_bank(1, m).automata[0]
        for _ in range(ops_per_size):
            action = int(rng.integers(1, m + 1))
            if rng.random() < 0.5:
                auto = reward(auto, action, float(rng.uniform(0.01, 0.99)))
            else:
                auto = penalize(auto, action, float(rng.uniform(0.0, 0.5)))
            worst_dev = max(worst_dev, abs(float(auto.probs.sum()) - 1.0))
            lowest_entry = min(lowest_entry, float(auto.probs.min()))
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-9 and lowest_entry >= 0.0 and elapsed < 5.0
    report(
        capsys,
        "automaton simplex preservation",
        ok,
        f"{3 * ops_per_size} ops over m in (2, 5, 50), worst |sum-1| {worst_dev:.2e}, "
        f"lowest entry {lowest_entry:.2e}, {elapsed:.1f}s (budget 5s)",
    )


def test_02_reward_rule_hand_values(capsys):
    two = reward(Automaton(np.array([0.5, 0.5])), 1, 0.5)
    thirds = reward(Automaton(np.array([1.0, 1.0, 1.0]) / 3.0), 2, 0.5)
    gap = max(
        float(np.abs(two.probs - np.array([0.75, 0.25])).max()),
        float(np.abs(thirds.probs - np.array([1 / 6, 2 / 3, 1 / 6])).max()),
    )
    ok = gap <= 1e-12
    report(
        capsys,
        "reward rule hand values",
        ok,
        f"(0.5,0.5)->({two.probs[0]},{two.probs[1]}), thirds->{tuple(float(p) for p in thirds.probs)}, "
        f"max deviation {gap:.2e} (tolerance 1e-12)",
    )


def test_03_matches_exhaustive_optimum_on_tiny_instances(capsys):
    # Compare on instances whose optimum is feasible: repair rewrites every
    # overloaded candidate before scoring, so a raw all-overloaded optimum is
    # not a point the solver can report.
    sizes = [(3, 4), (2, 3), (3, 5), (2, 4), (3, 6), (2, 5)]
    picked = []
    attempt = 0
    while len(picked) < 20 and attempt < 200:
        m, n = sizes[attempt % len(sizes)]
        seed = derive_seed(11, n, "oracle-instance", attempt)
        problem = generate_instance(
            GeneratorConfig(m=m, n=n, demand_floor_ratio=0.5, seed=seed)
        )
        oracle = brute_force(problem)
        if oracle.objectives.feasible:
            picked.append((attempt, n, problem, oracle))
        attempt += 1
    assert len(picked) == 20, "instance scan exhausted"
    matched = 0
    slowest = 0.0
    for i, n, problem, oracle in picked:
        result = solve(
            problem,
            SolverConfig(pop_size=50, max_cycles=200, seed=derive_seed(11, n, "lamocs", i)),
        )
        slowest = max(slowest, result.wall_time)
        if abs(result.best.scalar - oracle.scalar) <= 1e-9:
            matched += 1
    ok = matched >= 18 and slowest < 1.0
    report(
        capsys,
        "exhaustive-search equivalence on tiny instances",
        ok,
        f"{matched}/20 scalar optima matched within 1e-9 (need 18), "
        f"slowest run {slowest:.2f}s (budget 1s)",
    )


def test_04_feasible_flags_survive_reevaluation(default_sweep, capsys):
    cfg, records, _ = default_sweep
    flagged = 0
    mismatches = 0
    for rec in records:
        problem = generate_instance(
            GeneratorConfig(m=cfg.m, n=rec.report.n, seed=rec.instance_seed)
        )
        actually_feasible, _ = check_feasible(problem, rec.placement)
        flagged += rec.report.feasible
        if rec.report.feasible != actually_feasible:
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        "feasibility flag soundness",
        ok,
        f"{flagged}/{len(records)} runs flagged feasible, "
        f"{mismatches} disagreements with independent re-check",
    )


def test_05_best_so_far_history_never_rises(capsys):
    rng = np.random.default_rng(909)
    violations = 0
    checked = 0
    for _ in range(30):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 2 * m + 8))
        problem = generate_instance(
            GeneratorConfig(
                m=m, n=n, demand_floor_ratio=0.6, seed=int(rng.integers(2**63))
            )
        )
        seed = int(rng.integers(2**63))
        results = (
            solve(problem, SolverConfig(pop_size=20, max_cycles=40, seed=seed)),
            solve_ga(problem, GaConfig(pop_size=20, generations=40, seed=seed)),
            solve_pso(problem, PsoConfig(pop_size=20, iterations=40, seed=seed)),
        )
        for result in results:
            checked += 1
            history = np.asarray(result.history)
            if not np.all(np.diff(history) <= 0.0):
                violations += 1
    ok = violations == 0
    report(
        capsys,
        "convergence history monotone",
        ok,
        f"{checked} histories over 30 (instance, seed) pairs x 3 solvers, "
        f"{violations} with a rising step",
    )


def test_06_load_balance_not_worse_than_baselines(capsys):
    cfg = SweepConfig(
        vm_counts=(50,),
        m=20,
        reps=10,
        algorithms=("lamocs", "ga", "pso"),
        pop_sizes=(100,),
        cycles=500,
        base_seed=0,
    )
    records = run_sweep(cfg)
    means = {}
    for algorithm in cfg.algorithms:
        values = [r.report.load_balance for r in records if r.report.algorithm == algorithm]
        means[algorithm] = float(np.mean(values))
    ok = (
        means["lamocs"] <= means["ga"] + 1e-3
        and means["lamocs"] <= means["pso"] + 1e-3
    )
    report(
        capsys,
        "load balance vs baselines at n=50",
        ok,
        "mean load_balance lamocs {lamocs:.6f}, ga {ga:.6f}, pso {pso:.6f} "
        "(10 reps, pop 100, 500 cycles; tie margin 1e-3)".format(**means),
    )


def spearman(xs, ys) -> float:
    def ranks(values):
        order = np.argsort(np.asarray(values, dtype=np.float64))
        out = np.empty(len(values))
        out[order] = np.arange(len(values))
        return out - out.mean()

    rx, ry = ranks(xs), ranks(ys)
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_07_solve_time_grows_with_vm_count(default_sweep, capsys):
    cfg, records, _ = default_sweep
    counts = sorted(cfg.vm_counts)
    means = []
    for n in counts:
        values = [
            r.report.wall_time_ms
            for r in records
            if r.report.algorithm == "lamocs" and r.report.n == n
        ]
        means.append(float(np.mean(values)))
    rho = spearman(counts, means)
    strictly_rising = all(a < b for a, b in zip(means, means[1:]))
    ok = strictly_rising and rho == 1.0
    detail = ", ".join(f"n={n}: {ms:.0f}ms" for n, ms in zip(counts, means))
    report(
        capsys,
        "wall time scaling over n",
        ok,
        f"{detail}; Spearman rho {rho:.3f}",
    )


def test_08_balanced_packing_on_symmetric_instance(capsys):
    # 2 identical servers, 6 identical VMs; only the 3-3 splits fit
    # (4 VMs on one server need cpu 12 > 10), and every split has equal
    # utilization on both servers.
    problem = make_problem([(10.0, 16.0)] * 2, [(3.0, 4.0)] * 6)
    oracle = brute_force(problem)
    oracle_balanced = oracle.objectives.load_balance == 0.0
    hits = 0
    for seed in range(10):
        result = solve(problem, SolverConfig(pop_size=50, max_cycles=200, seed=seed))
        if evaluate(problem, result.best.decoded).load_balance <= 0.01:
            hits += 1
    ok = oracle_balanced and hits >= 9
    report(
        capsys,
        "symmetric instance balance",
        ok,
        f"exhaustive optimum load_balance {oracle.objectives.load_balance}, "
        f"solver within 0.01 in {hits}/10 seeded runs (need 9)",
    )


def drop_wall_time(text: str) -> list[list[str]]:
    rows = list(csv.reader(text.splitlines()))
    skip = [i for i, name in enumerate(rows[0]) if "wall_time" in name]
    return [[c for i, c in enumerate(row) if i not in skip] for row in rows]


def test_09_reruns_are_byte_identical(tmp_path, capsys):
    gen = ["generate", "--servers", "4", "--vms", "12", "--seed", "9"]
    inst_a, inst_b = tmp_path / "ia.json", tmp_path / "ib.json"
    assert main(gen + ["--out", str(inst_a)]) == 0
    assert main(gen + ["--out", str(inst_b)]) == 0

    solve_argv = [
        "solve", str(inst_a), "--algorithm", "lamocs", "--seed", "5",
        "--pop", "20", "--cycles", "30",
    ]
    pl_a, pl_b = tmp_path / "pa.json", tmp_path / "pb.json"
    tr_a, tr_b = tmp_path / "ta.jsonl", tmp_path / "tb.jsonl"
    main(solve_argv + ["--out", str(pl_a), "--trace", str(tr_a)])
    main(solve_argv + ["--out", str(pl_b), "--trace", str(tr_b)])

    bench_argv = [
        "bench", "--vm-counts", "8", "--servers", "4", "--reps", "2",
        "--algorithms", "ffd", "--pop", "10", "--cycles", "10",
    ]
    assert main(bench_argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(bench_argv + ["--out", str(tmp_path / "b.csv")]) == 0
    capsys.readouterr()

    same_instance = inst_a.read_bytes() == inst_b.read_bytes()
    same_placement = pl_a.read_bytes() == pl_b.read_bytes()
    same_trace = tr_a.read_bytes() == tr_b.read_bytes()
    same_meta = (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()
    same_agg = drop_wall_time((tmp_path / "a.csv").read_text()) == drop_wall_time(
        (tmp_path / "b.csv").read_text()
    )
    same_raw = drop_wall_time((tmp_path / "a.raw.csv").read_text()) == drop_wall_time(
        (tmp_path / "b.raw.csv").read_text()
    )
    ok = same_instance and same_placement and same_trace and same_meta and same_agg and same_raw
    report(
        capsys,
        "re-run determinism",
        ok,
        f"instance {same_instance}, placement {same_placement}, trace {same_trace}, "
        f"metadata {same_meta}, aggregate {same_agg}, raw {same_raw} "
        "(benchmark CSVs compared with measured wall-time columns excluded)",
    )


def test_10_default_sweep_fits_time_budget(default_sweep, capsys):
    cfg, records, elapsed = default_sweep
    expected = len(cfg.vm_counts) * len(cfg.algorithms) * cfg.reps
    ok = elapsed < 900.0 and len(records) == expected
    report(
        capsys,
        "default sweep budget",
        ok,
        f"{len(records)} runs (expected {expected}) in {elapsed:.0f}s (budget 900s)",
    )
