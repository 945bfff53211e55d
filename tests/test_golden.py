"""Fixed-seed outputs pinned byte for byte against tests/data/golden.json.

Covers the three population solvers, FFD, the brute-force oracle and the
``solve``, ``bench`` and ``oracle-check`` commands on small instances.
Floats are stored as ``float.hex`` strings and measured wall times are left
out, so any change in arithmetic, RNG consumption or output format shows.

Regenerate the file only for a declared behaviour change:

    PYTHONPATH=src python tests/test_golden.py

It prints each key it added, removed or changed, so the rewrite shows its scope.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest

from vmplace import (
    GaConfig,
    GeneratorConfig,
    PlacementProblem,
    PsoConfig,
    ResourceVector,
    SolverConfig,
    brute_force,
    generate_instance,
    solve,
    solve_ffd,
    solve_ga,
    solve_pso,
    write_instance,
)
from vmplace.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def _problem(servers, vms) -> PlacementProblem:
    return PlacementProblem(
        tuple(ResourceVector(c, m) for c, m in servers),
        tuple(ResourceVector(c, m) for c, m in vms),
    )


def instances() -> dict[str, PlacementProblem]:
    return {
        # default generator: demand floor 0.9, overloaded by construction
        "saturated": generate_instance(GeneratorConfig(m=4, n=12, seed=5)),
        "loose": generate_instance(GeneratorConfig(m=5, n=8, demand_floor_ratio=0.5, seed=2)),
        # feasible: a 3-3-2 split of equal VMs fits exactly
        "tight": _problem([(10, 12), (10, 12), (8, 9)], [(3.2, 4), (3.2, 4)] * 4),
        "one_server": _problem([(10, 16)], [(2, 4), (3, 4)]),
    }


def _hex(value):
    """Floats as float.hex, recursively; everything else as JSON has it."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    return [_hex(item) for item in value]


def _objectives(vector) -> list:
    return _hex([vector.utilization, vector.load_balance, vector.active_fraction, vector.feasible])


def _nest(nest) -> dict:
    return {
        "position": _hex([float(x) for x in nest.position]),
        "assign": list(nest.decoded.assign),
        "objectives": _objectives(nest.objectives),
        "scalar": _hex(nest.scalar),
    }


def _solver_runs() -> list[tuple[str, object, object]]:
    return [
        ("lamocs", solve, SolverConfig(pop_size=20, max_cycles=30, seed=11)),
        ("lamocs_variant", solve, SolverConfig(pop_size=20, max_cycles=30, seed=12, penalty_b=0.0, la_fraction=0.7)),
        # no regeneration rows; every nest doomed each cycle; the smallest population
        ("lamocs_pa0", solve, SolverConfig(pop_size=20, max_cycles=30, seed=15, p_a=0.0)),
        ("lamocs_pa1", solve, SolverConfig(pop_size=20, max_cycles=30, seed=16, p_a=1.0)),
        ("lamocs_pop2", solve, SolverConfig(pop_size=2, max_cycles=30, seed=17)),
        ("ga", solve_ga, GaConfig(pop_size=20, generations=30, seed=13)),
        ("pso", solve_pso, PsoConfig(pop_size=20, iterations=30, seed=14)),
    ]


def solver_outputs() -> dict:
    out = {}
    for inst_name, problem in instances().items():
        for run_name, solver, config in _solver_runs():
            trace = io.StringIO()
            result = solver(problem, config, trace)
            out[f"{run_name}/{inst_name}"] = {
                "best": _nest(result.best),
                "history": _hex(list(result.history)),
                "archive": [_nest(nest) for nest in result.archive],
                "cycles_run": result.cycles_run,
                "trace": trace.getvalue(),
            }
        out[f"ffd/{inst_name}"] = list(solve_ffd(problem).assign)
    return out


def oracle_outputs() -> dict:
    out = {}
    for name, floor in (("saturated", 0.9), ("loose", 0.5)):
        problem = generate_instance(GeneratorConfig(m=3, n=6, demand_floor_ratio=floor, seed=4))
        oracle = brute_force(problem)
        out[f"brute_force/{name}"] = {
            "best": list(oracle.best.assign),
            "objectives": _objectives(oracle.objectives),
            "scalar": _hex(oracle.scalar),
            "pareto": [[list(p.assign), _objectives(v)] for p, v in oracle.pareto],
        }
    return out


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _csv_without_wall_time(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if "wall_time" not in name]
    return [[row[i] for i in keep] for row in rows]


def cli_outputs() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inst = tmp / "inst.json"
        write_instance(instances()["loose"], inst)
        lamocs_flags = ["--pa", "0.5", "--la-fraction", "0.3", "--reward-a", "0.3",
                        "--penalty-b", "0.1", "--levy-scale", "0.2"]
        for name, extra in (("lamocs", []), ("lamocs_flags", lamocs_flags), ("ga", []), ("pso", []), ("ffd", [])):
            algorithm = name.split("_")[0]
            trace, place = tmp / f"{name}.jsonl", tmp / f"{name}.json"
            code, stdout = _run_cli([
                "solve", str(inst), "--algorithm", algorithm, "--seed", "3", "--pop", "12",
                "--cycles", "10", "--trace", str(trace), "--out", str(place), *extra,
            ])
            report = json.loads(stdout)
            del report["wall_time_ms"]
            out[f"cli_solve/{name}"] = {
                "exit": code,
                "report": _hex(report),
                "trace": trace.read_text(),
                "placement": place.read_text(),
            }

        # the second sweep pins the pop-major cell order and FFD's single run at pop 0
        for name, grid in (
            ("cli_bench", ["--vm-counts", "6", "8", "--reps", "1", "--algorithms", "lamocs", "ga", "pso", "ffd",
                           "--pop", "8", "--cycles", "6"]),
            ("cli_bench_pop", ["--vm-counts", "6", "--reps", "2", "--algorithms", "lamocs", "ffd",
                               "--pop", "4", "6", "--cycles", "4"]),
        ):
            agg = tmp / f"{name}.csv"
            code, _ = _run_cli(["bench", "--servers", "3", *grid, "--out", str(agg)])
            out[name] = {
                "exit": code,
                "raw": _csv_without_wall_time(tmp / f"{name}.raw.csv"),
                "aggregate": _csv_without_wall_time(agg),
                "meta": (tmp / f"{name}.meta.json").read_text(),
            }

        code, stdout = _run_cli(["oracle-check", "--count", "2", "--seed", "1", "--pop", "10", "--cycles", "10"])
        out["cli_oracle_check"] = {"exit": code, "stdout": stdout}
    return out


def outputs() -> dict:
    return {**solver_outputs(), **oracle_outputs(), **cli_outputs()}


@pytest.fixture(scope="module")
def fresh() -> dict:
    return json.loads(json.dumps(outputs()))


GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_output(fresh):
    assert sorted(fresh) == sorted(GOLDEN_DATA)


def test_some_solver_reports_feasible(fresh):
    assert any(fresh[f"{name}/loose"]["best"]["objectives"][3] for name in ("lamocs", "ga", "pso"))


@pytest.mark.parametrize("key", sorted(GOLDEN_DATA))
def test_matches_golden(fresh, key):
    assert fresh[key] == GOLDEN_DATA[key]


if __name__ == "__main__":
    new = json.loads(json.dumps(outputs()))
    for key in sorted(new.keys() | GOLDEN_DATA.keys()):
        if key not in GOLDEN_DATA:
            print(f"added: {key}")
        elif key not in new:
            print(f"removed: {key}")
        elif new[key] != GOLDEN_DATA[key]:
            print(f"changed: {key}")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
