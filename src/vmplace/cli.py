"""Command-line interface: generate, solve, bench, oracle-check."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import bench
from .baselines import BRUTE_FORCE_LIMIT, brute_force
from .instance import (
    GeneratorConfig,
    GeneratorError,
    generate_instance,
    read_instance,
    total_capacity,
    write_instance,
    write_placement,
)
from .objectives import ScalarWeights, eval_resource_waste, evaluate, scalarize, server_loads

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN_ALGORITHM = 3
EXIT_INFEASIBLE = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _weights_from(args: argparse.Namespace) -> ScalarWeights:
    return ScalarWeights(args.w_util, args.w_lb, args.w_active, args.infeasibility_penalty)


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w-util", type=float, default=1.0 / 3.0, help="scalarization weight on 1 - utilization")
    parser.add_argument("--w-lb", type=float, default=1.0 / 3.0, help="scalarization weight on load balance")
    parser.add_argument("--w-active", type=float, default=1.0 / 3.0, help="scalarization weight on active fraction")
    parser.add_argument("--infeasibility-penalty", type=float, default=10.0, help="flat penalty for infeasible placements")


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        cfg = GeneratorConfig(
            m=args.servers,
            n=args.vms,
            cpu_range=tuple(args.cpu_range),
            mem_range=tuple(args.mem_range),
            demand_floor_ratio=args.demand_floor,
            seed=args.seed,
            alpha=args.alpha,
            beta=1.0 - args.alpha,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    try:
        problem = generate_instance(cfg)
    except GeneratorError as exc:
        return _fail(str(exc), EXIT_FAILURE)
    write_instance(problem, args.out)
    cap = total_capacity(problem)
    demand_cpu = float(problem.vm_cpu.sum())
    demand_mem = float(problem.vm_mem.sum())
    print(f"wrote {args.out}")
    print(f"servers: {problem.m}  vms: {problem.n}")
    print(f"total capacity: cpu={cap.cpu:.3f} mem={cap.mem:.3f}")
    print(f"demand/capacity: cpu={demand_cpu / cap.cpu:.4f} mem={demand_mem / cap.mem:.4f}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if args.algorithm not in bench.ALGORITHMS:
        return _fail(
            f"unknown algorithm {args.algorithm!r}; choose from {', '.join(bench.ALGORITHMS)}",
            EXIT_UNKNOWN_ALGORITHM,
        )
    try:
        problem = read_instance(args.instance)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read instance: {exc}", EXIT_BAD_INPUT)
    fields = {"pop_size": args.pop, "seed": args.seed}
    if args.algorithm == "lamocs":
        fields.update(
            p_a=args.pa,
            levy_scale=args.levy_scale,
            la_fraction=args.la_fraction,
            reward_a=args.reward_a,
            penalty_b=args.penalty_b,
        )
    try:
        config = bench.make_config(args.algorithm, args.cycles, weights=_weights_from(args), **fields)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)

    with ExitStack() as outputs:
        try:
            trace = outputs.enter_context(open(args.trace, "w")) if args.trace else None
            out = outputs.enter_context(open(args.out, "w")) if args.out else None
        except OSError as exc:
            return _fail(f"cannot open output: {exc}", EXIT_BAD_INPUT)
        try:
            placement, result, wall = bench.run_algorithm(problem, args.algorithm, config, trace)
        except ValueError as exc:
            return _fail(str(exc), EXIT_BAD_INPUT)

        objs = evaluate(problem, placement)
        loads = server_loads(problem, placement)
        report = {
            "algorithm": args.algorithm,
            "feasible": objs.feasible,
            "utilization": objs.utilization,
            "load_balance": objs.load_balance,
            "active_servers": sum(load.active for load in loads),
            "resource_waste": eval_resource_waste(loads),
            "scalar": None if result is None else result.best.scalar,
            "cycles": 0 if result is None else result.cycles_run,
            "archive_size": 0 if result is None else len(result.archive),
            "wall_time_ms": wall * 1000.0,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        if out is not None:
            write_placement(placement, out)
    return EXIT_OK if objs.feasible else EXIT_INFEASIBLE


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = bench.SweepConfig(
            vm_counts=tuple(args.vm_counts),
            m=args.servers,
            reps=args.reps,
            algorithms=tuple(args.algorithms),
            base_seed=args.base_seed,
            pop_size=args.pop,
            cycles=args.cycles,
            weights=_weights_from(args),
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)

    out = Path(args.out)
    raw_path = Path(args.raw_out) if args.raw_out else out.with_name(f"{out.stem}.raw{out.suffix}")
    meta_path = out.with_name(f"{out.stem}.meta.json")

    try:
        if args.pop_sweep:
            records = bench.run_pop_sweep(cfg, tuple(args.pop_sizes), vm_count=args.pop_sweep_vms)
            rows = bench.aggregate(records, by="pop")
            extra = {"mode": "pop_sweep", "pop_sizes": list(args.pop_sizes), "pop_sweep_vms": args.pop_sweep_vms}
        else:
            records = bench.run_sweep(cfg)
            rows = bench.aggregate(records, by="n")
            extra = {"mode": "sweep"}
    except GeneratorError as exc:
        return _fail(str(exc), EXIT_FAILURE)

    try:
        for path in (out, raw_path):
            path.parent.mkdir(parents=True, exist_ok=True)
        if args.format == "json":
            bench.write_raw_json(records, raw_path, include_pop=args.pop_sweep)
            bench.write_aggregate_json(rows, out)
        else:
            bench.write_raw_csv(records, raw_path, include_pop=args.pop_sweep)
            bench.write_aggregate_csv(rows, out)
        bench.write_metadata(cfg, meta_path, extra=extra)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_BAD_INPUT)

    print(f"wrote {raw_path} ({len(records)} runs)")
    print(f"wrote {out} ({len(rows)} cells)")
    print(f"wrote {meta_path}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    unknown = [a for a in args.algorithms if a not in bench.ALGORITHMS]
    if unknown:
        return _fail(
            f"unknown algorithm {unknown[0]!r}; choose from {', '.join(bench.ALGORITHMS)}",
            EXIT_UNKNOWN_ALGORITHM,
        )
    rng = np.random.default_rng(args.seed)
    weights = ScalarWeights()
    matches = {algorithm: 0 for algorithm in args.algorithms}
    # Compare only on instances whose optimum is feasible: repair rewrites
    # every overloaded candidate before scoring, so a raw all-overloaded
    # optimum is not a point any solver can report.
    compared = 0
    attempts = 0
    max_attempts = max(args.count * 50, 50)
    while compared < args.count and attempts < max_attempts:
        m = int(rng.integers(2, args.max_servers + 1))
        n = int(rng.integers(m + 1, args.max_vms + 1))
        if m**n > BRUTE_FORCE_LIMIT:
            return _fail(f"m={m}, n={n} too large for the oracle", EXIT_BAD_INPUT)
        problem = generate_instance(
            GeneratorConfig(
                m=m,
                n=n,
                demand_floor_ratio=0.5,
                seed=bench.derive_seed(args.seed, n, "oracle-instance", attempts),
            )
        )
        attempts += 1
        oracle = brute_force(problem, weights)
        if not oracle.objectives.feasible:
            continue
        compared += 1
        for algorithm in args.algorithms:
            seed = bench.derive_seed(args.seed, n, algorithm, attempts - 1)
            try:
                config = bench.make_config(algorithm, args.cycles, pop_size=args.pop, seed=seed, weights=weights)
            except ValueError as exc:
                return _fail(str(exc), EXIT_BAD_INPUT)
            placement, _, _ = bench.run_algorithm(problem, algorithm, config)
            scalar = scalarize(evaluate(problem, placement), weights)
            if abs(scalar - oracle.scalar) <= args.tol:
                matches[algorithm] += 1
    for algorithm in args.algorithms:
        fraction = matches[algorithm] / compared if compared else 1.0
        print(f"{algorithm}: {matches[algorithm]}/{compared} matched (fraction {fraction:.3f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmplace",
        description="VM placement via automata-guided cuckoo search (LAMOCS), with GA/PSO/FFD baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic instance JSON file")
    p_gen.add_argument("--servers", type=int, required=True, help="number of servers (m)")
    p_gen.add_argument("--vms", type=int, required=True, help="number of VMs (n), at least m")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cpu-range", type=float, nargs=2, default=(10.0, 30.0), metavar=("LO", "HI"))
    p_gen.add_argument("--mem-range", type=float, nargs=2, default=(16.0, 64.0), metavar=("LO", "HI"))
    p_gen.add_argument("--demand-floor", type=float, default=0.9, help="total demand floor as a share of capacity")
    p_gen.add_argument("--alpha", type=float, default=0.5, help="cpu weight; mem weight is 1 - alpha")
    p_gen.add_argument("--out", default="instance.json")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve an instance file and print a report")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument("--algorithm", default="lamocs", help="lamocs | ga | pso | ffd")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--pop", type=int, default=100)
    p_solve.add_argument("--cycles", type=int, default=500)
    p_solve.add_argument("--pa", type=float, default=0.25, help="abandonment fraction (lamocs)")
    p_solve.add_argument("--la-fraction", type=float, default=0.5, help="share of regenerated nests drawn from the automata")
    p_solve.add_argument("--reward-a", type=float, default=0.5)
    p_solve.add_argument("--penalty-b", type=float, default=0.05)
    p_solve.add_argument("--levy-scale", type=float, default=None, help="step scale; default 0.01 * (m - 1)")
    p_solve.add_argument("--out", default=None, help="write the placement JSON here")
    p_solve.add_argument("--trace", default=None, help="write per-cycle JSONL here")
    _add_weight_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep and write CSV/JSON tables")
    p_bench.add_argument("--vm-counts", type=int, nargs="+", default=(20, 40, 60, 80, 100))
    p_bench.add_argument("--servers", type=int, default=20)
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--algorithms", nargs="+", default=("lamocs", "ga", "pso"))
    p_bench.add_argument("--base-seed", type=int, default=0)
    p_bench.add_argument("--pop", type=int, default=100)
    p_bench.add_argument("--cycles", type=int, default=500)
    p_bench.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.add_argument("--out", default="results.csv", help="aggregate table path")
    p_bench.add_argument("--raw-out", default=None, help="raw per-run table path")
    p_bench.add_argument("--pop-sweep", action="store_true", help="sweep population size at fixed vm count")
    p_bench.add_argument("--pop-sizes", type=int, nargs="+", default=(50, 100, 150, 200))
    p_bench.add_argument("--pop-sweep-vms", type=int, default=100)
    _add_weight_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle-check", help="compare solvers against brute force on tiny instances")
    p_oracle.add_argument("--count", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-servers", type=int, default=3)
    p_oracle.add_argument("--max-vms", type=int, default=6)
    p_oracle.add_argument("--algorithms", nargs="+", default=list(bench.ALGORITHMS))
    p_oracle.add_argument("--pop", type=int, default=50)
    p_oracle.add_argument("--cycles", type=int, default=200)
    p_oracle.add_argument("--tol", type=float, default=1e-9)
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
