"""Solver benchmark for vmplace: end-to-end solve time, quality and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload planted --seed 0 --seconds 25 --trace 0

Each run builds its workload's instances from ``--seed``, then times the
public solvers ``solve``, ``solve_ga`` and ``solve_pso`` on them, one
after another in this process.  Every returned placement is re-checked
with ``evaluate`` and ``check_feasible``.  With ``--trace 0`` the run makes one
timed pass over the instances, sized to take about ``--seconds``, then
solves the first instance of each solver again to check that the results
repeat; with ``--trace 1`` it makes one untraced and one traced pass over a
third of the instances and reports the per-layer breakdown.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one process, no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 11
# A traced run makes an untraced and a traced pass over this share of each
# solver's instances, so it takes less time than an untraced run.
TRACE_SHARE = 1 / 3
HOLDOUT_SEED = 16147  # keep out of development runs; confirm claims on it
_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    solver: str
    instance: str
    seconds: float  # process CPU time
    wall: float
    scalar: float | None
    feasible: bool
    assign: tuple[int, ...]
    failure: str | None


def import_vmplace():
    """Import the package from this checkout's ``src``, never from site-packages."""
    for name in [k for k in sys.modules if k == "vmplace" or k.startswith("vmplace.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    vmplace = importlib.import_module("vmplace")
    if not Path(vmplace.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"vmplace was imported from {vmplace.__file__}, not from {SRC}")
    return vmplace


def set_up(workload: str, seed: int, k: int):
    """Import vmplace afresh, draw ``k`` instances and build them; returns CPU timings too."""
    gc.collect()
    t0 = time.process_time()
    vmplace = import_vmplace()
    specs = workloads.build(workload, seed, k)
    b0 = time.process_time()
    problems = [to_problem(vmplace, spec) for spec in specs]
    build_s = time.process_time() - b0
    for spec, problem in zip(specs, problems):
        if spec.witness is not None:
            witness = vmplace.Placement(tuple(int(v) for v in spec.witness))
            if not vmplace.check_feasible(problem, witness)[0]:
                raise RuntimeError(f"planted witness of {spec.name} is infeasible")
    return vmplace, specs, problems, time.process_time() - t0, build_s


def to_problem(vmplace, spec: workloads.Spec):
    rv = vmplace.ResourceVector
    return vmplace.PlacementProblem(
        tuple(rv(c, m) for c, m in zip(spec.server_cpu, spec.server_mem)),
        tuple(rv(c, m) for c, m in zip(spec.vm_cpu, spec.vm_mem)),
    )


def solvers(vmplace):
    """Solver name -> (solve function, config factory), at the benchmark's pop and cycles."""
    pop, cycles = workloads.POP, workloads.CYCLES
    return {
        "lamocs": (vmplace.solve, lambda s: vmplace.SolverConfig(pop_size=pop, max_cycles=cycles, seed=s)),
        "ga": (vmplace.solve_ga, lambda s: vmplace.GaConfig(pop_size=pop, generations=cycles, seed=s)),
        "pso": (vmplace.solve_pso, lambda s: vmplace.PsoConfig(pop_size=pop, iterations=cycles, seed=s)),
    }


def check(vmplace, problem, result) -> str | None:
    """Why the reported best disagrees with an independent re-evaluation, or None."""
    best = result.best
    try:
        best.decoded.validate_for(problem)
    except ValueError as exc:
        return f"invalid placement: {exc}"
    objs = vmplace.evaluate(problem, best.decoded)
    feasible, _ = vmplace.check_feasible(problem, best.decoded)
    if feasible != objs.feasible or best.objectives.feasible != feasible:
        return f"feasibility reported {best.objectives.feasible}, re-checked {feasible}"
    for name in ("utilization", "load_balance", "active_fraction"):
        if not math.isclose(getattr(best.objectives, name), getattr(objs, name), rel_tol=_TOL, abs_tol=_TOL):
            return f"{name} reported {getattr(best.objectives, name)!r}, re-evaluated {getattr(objs, name)!r}"
    scalar = vmplace.scalarize(objs, vmplace.ScalarWeights())
    if not math.isclose(best.scalar, scalar, rel_tol=_TOL, abs_tol=_TOL):
        return f"scalar reported {best.scalar!r}, re-evaluated {scalar!r}"
    return None


def run_pass(vmplace, specs, problems, counts, seed: int, tracer: tracing.Tracer | None = None) -> list[Outcome]:
    """Time each solver on its first ``counts[solver]`` instances; checks run outside the timing."""
    outcomes = []
    table = solvers(vmplace)
    for i, (spec, problem) in enumerate(zip(specs, problems)):
        for name, (solve, config_for) in table.items():
            if i >= counts[name]:
                continue
            config = config_for(workloads.derive_seed(seed, spec.name, name))
            if tracer is not None:
                solve = tracing.wrap_solver(tracer, name, solve)
            result, failure = None, None
            gc.collect()
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                result = solve(problem, config)
            except Exception:
                failure = traceback.format_exc()
            seconds, wall = time.process_time() - t0, time.perf_counter() - w0
            if result is not None:
                try:
                    failure = check(vmplace, problem, result)
                except Exception:
                    failure = traceback.format_exc()
            if failure is not None:
                print(f"FAILED {name} on {spec.name}: {failure}", file=sys.stderr)
                outcomes.append(Outcome(name, spec.name, seconds, wall, None, False, (), failure))
                continue
            best = result.best
            outcomes.append(
                Outcome(name, spec.name, seconds, wall, best.scalar, best.objectives.feasible, best.decoded.assign, None)
            )
    return outcomes


TIMED = ("solve_s", *(f"{name}_s" for name in tracing.ROOTS))


def pass_times(outcomes: list[Outcome]) -> dict[str, float]:
    times = {f"{name}_s": sum(o.seconds for o in outcomes if o.solver == name) for name in tracing.ROOTS}
    times["solve_s"] = sum(o.seconds for o in outcomes)
    times["wall_s"] = sum(o.wall for o in outcomes)
    return times


def fingerprint(outcomes: list[Outcome]) -> list[tuple]:
    """What must repeat exactly at one seed: best scalar, feasibility and placement per solve."""
    return [(o.solver, o.instance, o.scalar, o.feasible, o.assign) for o in outcomes]


def unit_of(metric: str) -> str:
    if metric == "best_scalar":
        return "score"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("ms"):
        return "ms"
    return "s" if metric.endswith("_s") else "count"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "threads_pinned": os.environ["OMP_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help=f"input seed; {HOLDOUT_SEED} is the holdout")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write the raw spans here as JSON lines")
    args = parser.parse_args(argv)

    counts = workloads.counts(args.workload, args.seconds)
    if args.trace:
        counts = {name: math.ceil(k * TRACE_SHARE) for name, k in counts.items()}
    setup_times, build_times = [], []
    for _ in range(SETUP_REPS):
        try:
            vmplace, specs, problems, setup_s, build_s = set_up(args.workload, args.seed, max(counts.values()))
        except ImportError as exc:
            print(f"cannot import vmplace from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_times.append(setup_s)
        build_times.append(build_s)
    # Keep the collector off the instances: the per-solve collections below
    # then scan only what the solvers allocate.
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        first = run_pass(vmplace, specs, problems, counts, args.seed)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, vmplace)
        try:
            again = run_pass(vmplace, specs, problems, counts, args.seed, tracer)
        finally:
            tracing.restore(saved)
        times = [pass_times(first), pass_times(again)]
    else:
        first = run_pass(vmplace, specs, problems, counts, args.seed)
        # Untimed: one solve per solver again, which must give the same result.
        again = run_pass(vmplace, specs, problems, dict.fromkeys(counts, 1), args.seed)
        times = [pass_times(first)]

    attempted = len(first) + len(again)
    failed = sum(o.failure is not None for o in (*first, *again))
    solved_again = {(o.solver, o.instance) for o in again}
    repeatable = fingerprint(again) == fingerprint([o for o in first if (o.solver, o.instance) in solved_again])
    if not repeatable:
        print("FAILED: best scalars, feasibility or placements differ between two solves at one seed", file=sys.stderr)
    feasible_share = sum(o.feasible for o in first) / len(first)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": counts,
        "pop": workloads.POP,
        "cycles": workloads.CYCLES,
        "passes": times,
        "feasible_share": feasible_share,
        "failed_share": failed / attempted,
        "host": host_facts(),
    }

    if args.trace:
        untraced, traced = times
        metrics = tracing.layer_metrics(tracer)
        metrics.update(
            {
                "instance.build_ms": statistics.median(build_times) * 1e3,
                "trace.solve_s": traced["solve_s"],
                "trace.overhead_s": traced["solve_s"] - untraced["solve_s"],
                "solve.feasible_share": feasible_share,
                "solve.failed_share": failed / attempted,
            }
        )
        report["layers_ms"] = tracing.solver_layers(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = {name: times[0][name] for name in TIMED}
        scalars = [o.scalar for o in first if o.failure is None] or [0.0]
        metrics.update(
            {
                "setup_s": statistics.median(setup_times),
                "best_scalar": sum(scalars) / len(scalars),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )

    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and repeatable,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
