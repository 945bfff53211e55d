"""Command-line interface: generate, solve, bench, oracle-check."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bench
from .baselines import BRUTE_FORCE_LIMIT, brute_force
from .cuckoo import SolverConfig
from .instance import (
    RESOURCES,
    GeneratorConfig,
    GeneratorError,
    generate_instance,
    read_instance,
    write_instance,
    write_placement,
)
from .objectives import ScalarWeights, evaluate, scalarize

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN_ALGORITHM = 3
EXIT_INFEASIBLE = 4

# Flags whose destination is the config field they set; their defaults are read from that config.
_GENERATOR_FIELDS = ("seed", "cpu_range", "mem_range", "demand_floor_ratio", "alpha")
_LAMOCS_FIELDS = ("p_a", "levy_scale", "la_fraction", "reward_a", "penalty_b")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _pick(source, names: tuple[str, ...]) -> dict:
    return {name: getattr(source, name) for name in names}


def _reject_unknown(algorithms) -> int | None:
    """EXIT_UNKNOWN_ALGORITHM, after one error line, when a name is not an algorithm; else None."""
    unknown = [a for a in algorithms if a not in bench.ALGORITHMS]
    if unknown:
        return _fail(f"unknown algorithm {unknown[0]!r}; choose from {', '.join(bench.ALGORITHMS)}", EXIT_UNKNOWN_ALGORITHM)
    return None


def _weights_from(args: argparse.Namespace) -> ScalarWeights:
    return ScalarWeights(args.w_util, args.w_lb, args.w_active, args.infeasibility_penalty)


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w-util", type=float, help="scalarization weight on 1 - utilization")
    parser.add_argument("--w-lb", type=float, help="scalarization weight on load balance")
    parser.add_argument("--w-active", type=float, help="scalarization weight on active fraction")
    parser.add_argument("--infeasibility-penalty", type=float, help="flat penalty for infeasible placements")
    # each flag's destination is the ScalarWeights field it sets
    parser.set_defaults(**asdict(ScalarWeights()))


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        cfg = GeneratorConfig(m=args.servers, n=args.vms, beta=1.0 - args.alpha, **_pick(args, _GENERATOR_FIELDS))
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    try:
        problem = generate_instance(cfg)
    except GeneratorError as exc:
        return _fail(str(exc), EXIT_FAILURE)
    try:
        write_instance(problem, args.out)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_BAD_INPUT)
    capacity = problem.capacity.sum(axis=1)
    fill = problem.demand.sum(axis=1) / capacity
    print(f"wrote {args.out}")
    print(f"servers: {problem.m}  vms: {problem.n}")
    print("total capacity: " + " ".join(f"{name}={value:.3f}" for name, value in zip(RESOURCES, capacity)))
    print("demand/capacity: " + " ".join(f"{name}={value:.4f}" for name, value in zip(RESOURCES, fill)))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if (code := _reject_unknown([args.algorithm])) is not None:
        return code
    try:
        problem = read_instance(args.instance)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read instance: {exc}", EXIT_BAD_INPUT)
    fields = {"pop_size": args.pop, "seed": args.seed}
    if args.algorithm == "lamocs":
        fields.update(_pick(args, _LAMOCS_FIELDS))
    try:
        config = bench.make_config(args.algorithm, args.cycles, weights=_weights_from(args), **fields)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)

    with ExitStack() as outputs:
        # on failure remove only the outputs this call created: a path that
        # existed before (a kept log, /dev/null) is not ours to delete
        created = [Path(name) for name in (args.trace, args.out) if name and not Path(name).exists()]
        try:
            trace = outputs.enter_context(open(args.trace, "w")) if args.trace else None
            out = outputs.enter_context(open(args.out, "w")) if args.out else None
        except OSError as exc:
            outputs.close()
            for path in created:
                path.unlink(missing_ok=True)
            return _fail(f"cannot open output: {exc}", EXIT_BAD_INPUT)
        placement, result, wall = bench.run_algorithm(problem, args.algorithm, config, trace)
        metrics = bench.placement_metrics(problem, placement)
        report = {
            "algorithm": args.algorithm,
            **metrics,
            "scalar": None if result is None else result.best.scalar,
            "cycles": 0 if result is None else result.cycles_run,
            "archive_size": 0 if result is None else len(result.archive),
            "wall_time_ms": wall * 1000.0,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        if metrics["utilization"] > 1.0:
            print(f"warning: utilization {metrics['utilization']:.4f} exceeds 1: a server is overloaded", file=sys.stderr)
        if out is not None:
            write_placement(placement, out)
    return EXIT_OK if metrics["feasible"] else EXIT_INFEASIBLE


def cmd_bench(args: argparse.Namespace) -> int:
    if (code := _reject_unknown(args.algorithms)) is not None:
        return code
    try:
        cfg = bench.SweepConfig(
            vm_counts=tuple(args.vm_counts),
            m=args.servers,
            reps=args.reps,
            algorithms=tuple(args.algorithms),
            base_seed=args.base_seed,
            pop_sizes=tuple(args.pop),
            cycles=args.cycles,
            weights=_weights_from(args),
            jobs=args.jobs,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)

    out = Path(args.out)
    raw_path = Path(args.raw_out) if args.raw_out else out.with_name(f"{out.stem}.raw{out.suffix}")
    meta_path = out.with_name(f"{out.stem}.meta.json")
    if len({path.resolve() for path in (out, raw_path, meta_path)}) < 3:
        return _fail("--out, --raw-out and the metadata sidecar must be three different files", EXIT_BAD_INPUT)

    try:
        records = bench.run_sweep(cfg)
    except GeneratorError as exc:
        return _fail(str(exc), EXIT_FAILURE)
    rows = bench.aggregate(records)

    try:
        for path in (out, raw_path):
            path.parent.mkdir(parents=True, exist_ok=True)
        if args.format == "json":
            bench.write_raw_json(records, raw_path)
            bench.write_aggregate_json(rows, out)
        else:
            bench.write_raw_csv(records, raw_path)
            bench.write_aggregate_csv(rows, out)
        bench.write_metadata(cfg, meta_path)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_BAD_INPUT)

    print(f"wrote {raw_path} ({len(records)} runs)")
    print(f"wrote {out} ({len(rows)} cells)")
    print(f"wrote {meta_path}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if (code := _reject_unknown(args.algorithms)) is not None:
        return code
    # instances draw m in [2, max_servers] and n in [m + 1, max_vms]
    if args.max_servers < 2:
        return _fail("--max-servers must be at least 2", EXIT_BAD_INPUT)
    if args.max_vms <= args.max_servers:
        return _fail("--max-vms must exceed --max-servers", EXIT_BAD_INPUT)
    if args.count < 1:
        return _fail("--count must be at least 1", EXIT_BAD_INPUT)
    if not (np.isfinite(args.tol) and args.tol >= 0):
        return _fail("--tol must be finite and non-negative", EXIT_BAD_INPUT)
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
    if not compared:
        return _fail(f"no instance with a feasible optimum in {attempts} attempts", EXIT_FAILURE)
    for algorithm in args.algorithms:
        fraction = matches[algorithm] / compared
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
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--cpu-range", type=float, nargs=2, metavar=("LO", "HI"))
    p_gen.add_argument("--mem-range", type=float, nargs=2, metavar=("LO", "HI"))
    p_gen.add_argument(
        "--demand-floor",
        dest="demand_floor_ratio",
        metavar="DEMAND_FLOOR",
        type=float,
        help="total demand floor as a share of capacity",
    )
    p_gen.add_argument("--alpha", type=float, help="cpu weight; mem weight is 1 - alpha")
    p_gen.add_argument("--out", default="instance.json")
    p_gen.set_defaults(func=cmd_generate, **_pick(GeneratorConfig, _GENERATOR_FIELDS))

    p_solve = sub.add_parser("solve", help="solve an instance file and print a report")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument("--algorithm", default="lamocs", help="lamocs | ga | pso | ffd")
    p_solve.add_argument("--seed", type=int, default=SolverConfig.seed)
    p_solve.add_argument("--pop", type=int, default=SolverConfig.pop_size)
    p_solve.add_argument("--cycles", type=int, default=SolverConfig.max_cycles)
    p_solve.add_argument("--pa", dest="p_a", metavar="PA", type=float, help="abandonment fraction (lamocs)")
    p_solve.add_argument("--la-fraction", type=float, help="share of regenerated nests drawn from the automata")
    p_solve.add_argument("--reward-a", type=float)
    p_solve.add_argument("--penalty-b", type=float)
    p_solve.add_argument("--levy-scale", type=float, help="step scale; default 0.01 * (m - 1)")
    p_solve.add_argument("--out", default=None, help="write the placement JSON here")
    p_solve.add_argument("--trace", default=None, help="write per-cycle JSONL here")
    _add_weight_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve, **_pick(SolverConfig, _LAMOCS_FIELDS))

    p_bench = sub.add_parser("bench", help="run a benchmark sweep and write CSV/JSON tables")
    p_bench.add_argument("--vm-counts", type=int, nargs="+", default=bench.SweepConfig.vm_counts)
    p_bench.add_argument("--servers", type=int, default=bench.SweepConfig.m)
    p_bench.add_argument("--reps", type=int, default=bench.SweepConfig.reps)
    p_bench.add_argument("--algorithms", nargs="+", default=bench.SweepConfig.algorithms)
    p_bench.add_argument("--base-seed", type=int, default=bench.SweepConfig.base_seed)
    p_bench.add_argument("--pop", type=int, nargs="+", default=bench.SweepConfig.pop_sizes, help="population sizes")
    p_bench.add_argument("--cycles", type=int, default=bench.SweepConfig.cycles)
    p_bench.add_argument("--jobs", type=int, default=bench.SweepConfig.jobs, help="worker processes")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bench.add_argument("--out", default="results.csv", help="aggregate table path")
    p_bench.add_argument("--raw-out", default=None, help="raw per-run table path")
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
