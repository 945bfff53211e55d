import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vmplace import ObjectiveVector, Placement, check_feasible, evaluate, generate_instance, GeneratorConfig, GeneratorError
from vmplace import GaConfig, PsoConfig, SolverConfig
from vmplace import bench, cli
from vmplace.baselines import BruteForceResult, brute_force
from vmplace.bench import (
    RAW_COLUMNS,
    SweepConfig,
    aggregate,
    derive_seed,
    run_single,
    run_sweep,
    write_aggregate_csv,
    write_metadata,
    write_raw_csv,
    write_raw_json,
)
from vmplace.cli import main

SMALL = dict(vm_counts=(8,), m=4, reps=2, pop_sizes=(10,), cycles=15)
SRC = Path(__file__).resolve().parents[1] / "src"


class TestDeriveSeed:
    def test_stable_documented_values(self):
        # frozen regression values for the blake2b-based scheme
        assert derive_seed(0, 20, "instance", 0) == derive_seed(0, 20, "instance", 0)
        assert derive_seed(0, 20, "instance", 0) != derive_seed(0, 20, "instance", 1)
        assert derive_seed(0, 20, "lamocs", 0) != derive_seed(0, 20, "ga", 0)
        assert derive_seed(1, 20, "lamocs", 0) != derive_seed(0, 20, "lamocs", 0)

    def test_fits_in_64_bits(self):
        for rep in range(20):
            assert 0 <= derive_seed(0, 100, "pso", rep) < 2**64

    def test_instances_shared_across_algorithms(self):
        cfg = SweepConfig(**SMALL, algorithms=("lamocs", "ffd"))
        records = run_sweep(cfg)
        by_alg = {}
        for rec in records:
            by_alg.setdefault(rec.report.algorithm, []).append(rec.instance_seed)
        assert by_alg["lamocs"] == by_alg["ffd"]


class TestRunSingle:
    def test_metrics_match_reevaluation(self):
        cfg = SweepConfig(**SMALL)
        rec = run_single(cfg, 10, 8, "lamocs", 0)
        problem = generate_instance(
            GeneratorConfig(m=cfg.m, n=8, cpu_range=cfg.cpu_range, mem_range=cfg.mem_range,
                            demand_floor_ratio=cfg.demand_floor_ratio, seed=rec.instance_seed,
                            alpha=cfg.alpha, beta=cfg.beta)
        )
        objs = evaluate(problem, rec.placement)
        assert rec.report.utilization == objs.utilization
        assert rec.report.load_balance == objs.load_balance
        assert rec.report.feasible == objs.feasible
        assert rec.report.feasible == check_feasible(problem, rec.placement)[0]

    def test_ffd_has_no_population(self):
        cfg = SweepConfig(**SMALL, algorithms=("ffd",))
        rec = run_single(cfg, 10, 8, "ffd", 0)
        assert rec.report.pop == 0
        assert rec.report.algorithm == "ffd"


class TestRunSweep:
    def test_record_count_and_order(self):
        cfg = SweepConfig(**SMALL, algorithms=("lamocs", "ffd"))
        records = run_sweep(cfg)
        assert len(records) == 1 * 2 * 2
        keys = [(r.report.n, r.report.algorithm, r.report.rep) for r in records]
        assert keys == [(8, "lamocs", 0), (8, "lamocs", 1), (8, "ffd", 0), (8, "ffd", 1)]

    def test_deterministic(self):
        cfg = SweepConfig(**SMALL, algorithms=("ga",))
        a = [r.report for r in run_sweep(cfg)]
        b = [r.report for r in run_sweep(cfg)]
        for x, y in zip(a, b):
            assert x.utilization == y.utilization
            assert x.load_balance == y.load_balance
            assert x.seed == y.seed

    def test_parallel_jobs_match_serial(self):
        serial = run_sweep(SweepConfig(**SMALL, algorithms=("ffd",), jobs=1))
        parallel = run_sweep(SweepConfig(**SMALL, algorithms=("ffd",), jobs=2))
        # wall_time_ms is a measurement, everything else must agree
        def key(rec):
            r = rec.report
            return (r.algorithm, r.n, r.m, r.rep, r.seed, r.utilization,
                    r.load_balance, r.active_servers, r.feasible)
        assert [key(r) for r in serial] == [key(r) for r in parallel]

    def test_parallel_pop_sweep_matches_serial(self):
        grid = dict(**{**SMALL, "pop_sizes": (4, 6)}, algorithms=("ga", "ffd"))
        serial = run_sweep(SweepConfig(**grid, jobs=1))
        parallel = run_sweep(SweepConfig(**grid, jobs=2))
        # wall_time_ms is a measurement, everything else must agree
        def key(rec):
            return replace(rec.report, wall_time_ms=0.0), rec.placement, rec.instance_seed
        assert [key(r) for r in serial] == [key(r) for r in parallel]
        # ffd has no population, so it runs at the first size only
        assert [r.report.pop for r in serial] == [4, 4, 0, 0, 6, 6]

    @pytest.mark.parametrize("jobs, reps, workers", [(64, 1, None), (8, 2, 2), (2, 3, 2)])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, jobs, reps, workers):
        pools = []

        class FakePool:
            """Records its size and runs the cells in this process; starts no worker."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
        records = run_sweep(SweepConfig(**{**SMALL, "reps": reps}, algorithms=("ffd",), jobs=jobs))
        assert len(records) == reps
        assert pools == ([] if workers is None else [workers])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(vm_counts=())
        with pytest.raises(ValueError):
            SweepConfig(vm_counts=(9,), m=10)
        with pytest.raises(ValueError):
            SweepConfig(algorithms=("simulated-annealing",))
        with pytest.raises(ValueError):
            SweepConfig(reps=0)
        with pytest.raises(ValueError):
            SweepConfig(pop_sizes=())
        with pytest.raises(ValueError):
            SweepConfig(pop_sizes=(4, 1))


class TestAggregate:
    def test_mean_and_population_std(self):
        cfg = SweepConfig(**SMALL, algorithms=("ffd",))
        records = run_sweep(cfg)
        rows = aggregate(records)
        assert len(rows) == 1
        row = rows[0]
        values = np.array([r.report.utilization for r in records])
        assert row["utilization_mean"] == pytest.approx(values.mean())
        assert row["utilization_std"] == pytest.approx(values.std())
        assert row["runs"] == 2

    def test_single_rep_std_zero(self):
        cfg = SweepConfig(**{**SMALL, "reps": 1}, algorithms=("ffd",))
        rows = aggregate(run_sweep(cfg))
        assert rows[0]["load_balance_std"] == 0.0

    def test_pop_sweep_grouping(self):
        cfg = SweepConfig(**{**SMALL, "pop_sizes": (4, 6)}, algorithms=("ga",))
        rows = aggregate(run_sweep(cfg))
        assert [(r["pop"], r["algorithm"]) for r in rows] == [(4, "ga"), (6, "ga")]
        assert all(r["n"] == 8 for r in rows)
        assert list(rows[0])[:6] == ["algorithm", "n", "pop", "m", "runs", "feasible_rate"]

    def test_pop_sweep_counts_each_run_once(self):
        cfg = SweepConfig(**{**SMALL, "pop_sizes": (4, 6)}, algorithms=("lamocs", "ffd"))
        rows = aggregate(run_sweep(replace(cfg, cycles=2)))
        assert [(r["pop"], r["algorithm"]) for r in rows] == [(4, "lamocs"), (0, "ffd"), (6, "lamocs")]
        assert [r["runs"] for r in rows] == [cfg.reps] * 3


class TestWriters:
    def test_raw_csv_columns(self, tmp_path):
        cfg = SweepConfig(**SMALL, algorithms=("ffd",))
        records = run_sweep(cfg)
        path = tmp_path / "raw.csv"
        write_raw_csv(records, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RAW_COLUMNS
        assert len(rows) == len(records) + 1
        assert rows[1][0] == "ffd"
        assert rows[1][RAW_COLUMNS.index("feasible")] in ("true", "false")

    def test_raw_json_shape(self, tmp_path):
        cfg = SweepConfig(**SMALL, algorithms=("ffd",))
        records = run_sweep(cfg)
        path = tmp_path / "raw.json"
        write_raw_json(records, path)
        payload = json.loads(path.read_text())
        assert set(payload["runs"][0]) == set(RAW_COLUMNS)

    def test_metadata_sidecar_deterministic(self, tmp_path):
        cfg = SweepConfig(**SMALL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_metadata(cfg, a)
        write_metadata(cfg, b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["m"] == 4
        assert payload["pop_sizes"] == [10]
        assert "seed_formula" in payload

    def test_aggregate_csv_roundtrip(self, tmp_path):
        cfg = SweepConfig(**SMALL, algorithms=("ffd",))
        rows = aggregate(run_sweep(cfg))
        path = tmp_path / "agg.csv"
        write_aggregate_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["algorithm"] == "ffd"
        assert float(parsed[0]["utilization_mean"]) == pytest.approx(rows[0]["utilization_mean"])


def write_split_instance(path):
    payload = {
        "servers": [{"cpu": 10.0, "mem": 10.0}] * 2,
        "vms": [{"cpu": 5.0, "mem": 5.0}] * 4,
        "alpha": 0.5,
        "beta": 0.5,
    }
    path.write_text(json.dumps(payload))


def no_draw(cfg):
    raise AssertionError("an instance was drawn")


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    return captured


class TestSeedValidation:
    @pytest.mark.parametrize("make", [
        lambda: SolverConfig(seed=1.5),
        lambda: SolverConfig(seed=-1),
        lambda: GaConfig(seed="a"),
        lambda: PsoConfig(seed=-1),
        lambda: GeneratorConfig(m=2, n=3, seed=1.5),
        lambda: SweepConfig(base_seed=1.5),
    ], ids=["solver-float", "solver-negative", "ga-str", "pso-negative", "generator-float", "sweep-float"])
    def test_config_rejects_seed(self, make):
        with pytest.raises(ValueError, match="seed must be"):
            make()

    def test_sweep_base_seed_may_be_negative(self):
        assert SweepConfig(base_seed=-3).base_seed == -3

    @pytest.mark.parametrize("command", ["generate", "solve", "oracle-check"])
    def test_negative_seed_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        out = tmp_path / "x.json"
        monkeypatch.setattr(cli, "generate_instance", no_draw)
        argv = {
            "generate": ["generate", "--servers", "3", "--vms", "6", "--seed", "-1", "--out", str(out)],
            "solve": ["solve", str(inst), "--seed", "-1", "--pop", "4", "--cycles", "2", "--out", str(out)],
            "oracle-check": ["oracle-check", "--count", "1", "--seed", "-1", "--algorithms", "ffd"],
        }[command]
        assert main(argv) == 2
        assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == [inst]


class TestCliGenerate:
    def test_writes_valid_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = main(["generate", "--servers", "3", "--vms", "9", "--seed", "5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["servers"]) == 3
        assert len(payload["vms"]) == 9
        assert "total capacity" in capsys.readouterr().out

    def test_byte_identical_on_rerun(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "--servers", "3", "--vms", "9", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_exit_2_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        rc = main(["generate", "--servers", "3", "--vms", "9", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("alpha", ["1.5", "-0.2", "nan"])
    def test_alpha_outside_unit_interval_exit_2_writes_nothing(self, tmp_path, capsys, alpha):
        rc = main(["generate", "--servers", "3", "--vms", "9", f"--alpha={alpha}", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_vms_not_exceeding_servers(self, tmp_path, capsys):
        rc = main(["generate", "--servers", "20", "--vms", "5", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCliSolve:
    def test_every_lamocs_setting_has_a_flag(self):
        # a SolverConfig field that `solve` cannot set would be a test-only knob
        names = {f.name for f in fields(SolverConfig)}
        assert names == {"pop_size", "max_cycles", "seed", "weights", *cli._LAMOCS_FLAGS}

    def test_solves_split_instance(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        out = tmp_path / "placement.json"
        rc = main([
            "solve", str(inst), "--algorithm", "lamocs", "--seed", "1",
            "--pop", "30", "--cycles", "80", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["utilization"] == pytest.approx(1.0, abs=1e-9)
        assert report["load_balance"] == pytest.approx(0.0, abs=1e-9)
        placement = json.loads(out.read_text())
        assert sorted(placement["assign"]) == [1, 1, 2, 2]

    def test_ffd_report(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        rc = main(["solve", str(inst), "--algorithm", "ffd"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["cycles"] == 0

    def test_malformed_instance_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["solve", str(bad)]) == 2
        capsys.readouterr()

    def test_non_numeric_instance_value_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "servers": [{"cpu": 10.0, "mem": 16.0}],
            "vms": [{"cpu": 2.0, "mem": True}],
        }))
        assert main(["solve", str(inst), "--algorithm", "ffd"]) == 2
        assert_one_error_line(capsys)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_infeasible_instance_exit_4(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "servers": [{"cpu": 10.0, "mem": 16.0}],
            "vms": [{"cpu": 8.0, "mem": 8.0}, {"cpu": 8.0, "mem": 8.0}],
            "alpha": 0.5, "beta": 0.5,
        }))
        rc = main(["solve", str(inst), "--algorithm", "lamocs", "--pop", "5", "--cycles", "5"])
        assert rc == 4
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False

    def test_utilization_above_one_warns(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "servers": [{"cpu": 10.0, "mem": 16.0}],
            "vms": [{"cpu": 8.0, "mem": 8.0}, {"cpu": 8.0, "mem": 8.0}],
            "alpha": 0.5, "beta": 0.5,
        }))
        assert main(["solve", str(inst), "--algorithm", "ffd"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["utilization"] == pytest.approx(1.3)
        assert captured.err == "warning: utilization 1.3000 exceeds 1: a server is overloaded\n"
        # a utilization of exactly 1 is a full, feasible packing
        write_split_instance(inst)
        assert main(["solve", str(inst), "--algorithm", "ffd"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["utilization"] == 1.0
        assert captured.err == ""

    @pytest.mark.parametrize("algorithm", ["lamocs", "ffd"])
    def test_zero_capacity_server_exit_2(self, tmp_path, capsys, algorithm):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "servers": [{"cpu": 10.0, "mem": 16.0}, {"cpu": 0.0, "mem": 16.0}],
            "vms": [{"cpu": 2.0, "mem": 2.0}, {"cpu": 3.0, "mem": 3.0}],
        }))
        assert main(["solve", str(inst), "--algorithm", algorithm, "--pop", "4", "--cycles", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "capacities must be strictly positive" in captured.err

    @pytest.mark.parametrize("algorithm", ["lamocs", "ga", "pso", "ffd"])
    @pytest.mark.parametrize("servers, vms, resource", [
        # a positive but subnormal capacity: every utilization is infinite
        ([{"cpu": 5e-324, "mem": 16}] * 2, [{"cpu": c, "mem": c} for c in (1, 2, 3)], "cpu"),
        # finite demands whose squared utilization deviations overflow
        ([{"cpu": 10, "mem": 16}] * 3, [{"cpu": 1e200, "mem": 1}] * 2 + [{"cpu": 1, "mem": 1}] * 2, "cpu"),
        ([{"cpu": 10, "mem": 1e-200}] * 3, [{"cpu": 1, "mem": 1}] * 3, "mem"),
    ], ids=["subnormal-capacity", "huge-demand", "tiny-mem"])
    def test_overflowing_scale_exit_2_writes_nothing(self, tmp_path, capsys, algorithm, servers, vms, resource):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"servers": servers, "vms": vms}))
        out = tmp_path / "o.json"
        argv = ["solve", str(inst), "--algorithm", algorithm, "--pop", "4", "--cycles", "3", "--out", str(out)]
        assert main(argv) == 2
        assert f"{resource} demands" in assert_one_error_line(capsys).err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["ga", "ffd"])
    @pytest.mark.parametrize("flags", [["--pop", "1"], ["--cycles", "-5"], ["--seed", "-3"]])
    def test_bad_search_flag_exit_2_for_every_algorithm(self, tmp_path, capsys, algorithm, flags):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        out = tmp_path / "o.json"
        assert main(["solve", str(inst), "--algorithm", algorithm, *flags, "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == [inst]

    @pytest.mark.parametrize("flag, value", [("--w-util", "nan"), ("--infeasibility-penalty", "inf")])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, flag, value):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        assert main(["solve", str(inst), "--pop", "4", "--cycles", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    def test_trace_written(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "solve", str(inst), "--algorithm", "lamocs", "--pop", "8",
            "--cycles", "10", "--trace", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 10
        assert set(json.loads(lines[0])) == {"cycle", "best_scalar", "archive_size"}

    @pytest.mark.parametrize("flag", ["--trace", "--out"])
    def test_unwritable_output_exit_2_before_solving(self, tmp_path, capsys, flag):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        rc = main(["solve", str(inst), "--pop", "4", "--cycles", "2", flag, str(tmp_path / "nodir" / "f.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_unwritable_out_removes_created_trace(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        trace = tmp_path / "t.jsonl"
        argv = ["solve", str(inst), "--pop", "4", "--cycles", "2", "--trace", str(trace),
                "--out", str(tmp_path / "nodir" / "p.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not trace.exists()
        # a trace path that existed before the call is left in place
        trace.write_text("kept\n")
        assert main(argv) == 2
        capsys.readouterr()
        assert trace.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--reward-a", "1.5"), ("--reward-a", "nan"), ("--penalty-b", "1"),
        ("--levy-scale", "nan"), ("--levy-scale", "inf"),
    ])
    def test_bad_lamocs_setting_exit_2_creates_no_file(self, tmp_path, capsys, flag, value):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        trace, out = tmp_path / "t.jsonl", tmp_path / "o.json"
        argv = ["solve", str(inst), "--pop", "4", "--cycles", "2", flag, value,
                "--trace", str(trace), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not trace.exists() and not out.exists()

    @pytest.mark.parametrize("algorithm", ["ga", "pso", "ffd"])
    @pytest.mark.parametrize("flag, value", [
        ("--pa", "0.5"), ("--la-fraction", "0.3"), ("--reward-a", "0.3"),
        ("--penalty-b", "0.1"), ("--levy-scale", "0.2"),
    ])
    def test_lamocs_flag_with_other_algorithm_exit_2(self, tmp_path, capsys, algorithm, flag, value):
        # valid values too: these algorithms have no such setting to apply them to
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        argv = ["solve", str(inst), "--algorithm", algorithm, "--pop", "4", "--cycles", "2", flag, value,
                "--trace", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "o.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} applies only to --algorithm lamocs\n"
        assert list(tmp_path.iterdir()) == [inst]

    def test_bad_config_leaves_no_trace_file(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        trace = tmp_path / "t.jsonl"
        assert main(["solve", str(inst), "--pop", "1", "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not trace.exists()

    @pytest.mark.parametrize("outputs", [
        ["--out", "inst.json"],
        ["--trace", "./inst.json"],
        ["--out", "p.json", "--trace", "sub/../p.json"],
    ])
    def test_colliding_paths_exit_2_before_opening(self, tmp_path, capsys, monkeypatch, outputs):
        # the placement or the trace would overwrite the instance, or one another
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        before = inst.read_bytes()
        assert main(["solve", "inst.json", "--pop", "4", "--cycles", "2", *outputs]) == 2
        assert_one_error_line(capsys)
        assert inst.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "sub"]

    def test_placement_file_byte_identical(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["solve", str(inst), "--algorithm", "ga", "--seed", "3", "--pop", "10", "--cycles", "15"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def strip_wall_time(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(csv_text.splitlines()))
    header = rows[0]
    drop = [i for i, name in enumerate(header) if "wall_time" in name]
    return [[cell for i, cell in enumerate(row) if i not in drop] for row in rows]


class TestCliBench:
    def test_small_sweep_files(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main([
            "bench", "--vm-counts", "8", "--servers", "4", "--reps", "2",
            "--algorithms", "lamocs", "ffd", "--pop", "10", "--cycles", "15",
            "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        raw = tmp_path / "results.raw.csv"
        meta = tmp_path / "results.meta.json"
        assert raw.exists() and meta.exists() and out.exists()
        with open(raw) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == RAW_COLUMNS
        assert len(rows) == 1 + 2 * 2

    def test_rerun_identical_modulo_wall_time(self, tmp_path, capsys):
        argv = [
            "bench", "--vm-counts", "8", "--servers", "4", "--reps", "2",
            "--algorithms", "ffd", "--pop", "10", "--cycles", "15",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert strip_wall_time(out_a.read_text()) == strip_wall_time(out_b.read_text())
        raw_a = (tmp_path / "a.raw.csv").read_text()
        raw_b = (tmp_path / "b.raw.csv").read_text()
        assert strip_wall_time(raw_a) == strip_wall_time(raw_b)
        meta_a = (tmp_path / "a.meta.json").read_bytes()
        meta_b = (tmp_path / "b.meta.json").read_bytes()
        assert meta_a == meta_b

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = main([
            "bench", "--vm-counts", "8", "--servers", "4", "--reps", "1",
            "--algorithms", "ffd", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["cells"][0]["algorithm"] == "ffd"

    def test_pop_sweep_adds_column(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        rc = main([
            "bench", "--pop", "4", "6", "--vm-counts", "8", "--servers", "4", "--reps", "1",
            "--algorithms", "ga", "ffd", "--cycles", "2", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "pop.raw.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "pop"
        assert [(row[0], row[-1]) for row in rows[1:]] == [("ga", "4"), ("ffd", "0"), ("ga", "6")]

    def test_pop_sweep_checks_and_records_its_own_vm_count(self, tmp_path, capsys):
        # a pop sweep is the one grid at a single VM count; the sidecar records both axes
        out = tmp_path / "pop.csv"
        rc = main([
            "bench", "--servers", "30", "--vm-counts", "40", "--pop", "4", "6",
            "--reps", "1", "--algorithms", "ffd", "--cycles", "2", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "pop.meta.json").read_text())
        assert meta["vm_counts"] == [40]
        assert meta["pop_sizes"] == [4, 6]
        assert "mode" not in meta and "pop_size" not in meta

    def test_bad_config_exit_2(self, tmp_path, capsys):
        rc = main(["bench", "--vm-counts", "8", "--servers", "9", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid", [
        ["--vm-counts", "8", "--servers", "0"],
        ["--vm-counts", "8", "--servers", "4", "--pop", "4", "1"],
        ["--vm-counts", "3", "--servers", "4"],
        # a repeated value would rerun the same cells and count them twice
        ["--vm-counts", "8", "8", "--servers", "4", "--reps", "2"],
        ["--vm-counts", "8", "--servers", "4", "--pop", "4", "4"],
        ["--vm-counts", "8", "--servers", "4", "--algorithms", "ffd", "ffd"],
    ])
    def test_bad_grid_exit_2_writes_nothing(self, tmp_path, capsys, grid):
        out = tmp_path / "out" / "x.csv"
        rc = main(["bench", "--reps", "1", "--algorithms", "ffd", "--cycles", "2", *grid, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("outputs", [
        ["--out", "same.csv", "--raw-out", "same.csv"],
        ["--out", "s.csv", "--raw-out", "s.meta.json"],
        ["--out", "s.json", "--raw-out", "sub/../s.json", "--format", "json"],
    ])
    def test_colliding_output_paths_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch, outputs):
        # one file cannot hold two of the aggregate, raw and sidecar outputs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc = main(["bench", "--vm-counts", "8", "--servers", "4", "--reps", "1", "--algorithms", "ffd", *outputs])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"] and not any((tmp_path / "sub").iterdir())

    def test_creates_output_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "s.csv"
        rc = main(["bench", "--vm-counts", "8", "--servers", "4", "--reps", "1", "--algorithms", "ffd",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert out.exists() and (out.parent / "s.raw.csv").exists() and (out.parent / "s.meta.json").exists()

    def test_generator_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # bench draws at demand floor 0.9 with n >= m, which the generator
        # always reaches, so its refusal is injected
        def refuse(cfg):
            raise GeneratorError("cannot reach the demand floor")

        monkeypatch.setattr(bench, "generate_instance", refuse)
        rc = main(["bench", "--vm-counts", "3", "--servers", "3", "--reps", "1", "--algorithms", "ffd",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCliOracleCheck:
    def test_reports_fractions(self, capsys):
        rc = main([
            "oracle-check", "--count", "3", "--seed", "2", "--pop", "20",
            "--cycles", "40", "--algorithms", "lamocs", "ffd",
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        for line in out:
            name, rest = line.split(":")
            assert name in ("lamocs", "ffd")
            fraction = float(rest.split("fraction")[1].strip(" )"))
            assert 0.0 <= fraction <= 1.0

    def test_zero_count_exit_2(self, capsys):
        rc = main(["oracle-check", "--count", "0", "--algorithms", "ffd"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_one_server_bound_exit_2(self, capsys):
        rc = main(["oracle-check", "--count", "1", "--max-servers", "1", "--algorithms", "ffd"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_vm_bound_not_above_server_bound_exit_2(self, capsys):
        rc = main(["oracle-check", "--count", "1", "--max-servers", "3", "--max-vms", "3", "--algorithms", "ffd"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_feasible_optimum_exit_1(self, monkeypatch, capsys):
        def infeasible_optimum(problem, weights=None):
            vector = ObjectiveVector(1.0, 0.0, 1.0, False)
            return BruteForceResult(Placement((1,) * problem.n), vector, 10.0, ())

        monkeypatch.setattr(cli, "brute_force", infeasible_optimum)
        rc = main(["oracle-check", "--count", "2", "--algorithms", "ffd"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no instance with a feasible optimum in 100 attempts\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_exit_2_before_drawing(self, monkeypatch, capsys, tol):
        monkeypatch.setattr(cli, "generate_instance", no_draw)
        rc = main(["oracle-check", "--count", "2", "--algorithms", "ffd", "--tol", tol])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")

    def test_repeated_algorithm_exit_2_before_drawing(self, monkeypatch, capsys):
        # a repeat would run the algorithm twice and count each match twice
        monkeypatch.setattr(cli, "generate_instance", no_draw)
        assert main(["oracle-check", "--count", "1", "--algorithms", "ffd", "ffd"]) == 2
        assert_one_error_line(capsys)

    def test_bad_config_exit_2(self, capsys):
        rc = main(["oracle-check", "--count", "1", "--pop", "1", "--algorithms", "ga"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        ["--pop", "1", "--algorithms", "ga"],
        ["--cycles", "-1", "--algorithms", "lamocs"],
        ["--pop", "1", "--algorithms", "ffd", "pso"],
    ])
    def test_bad_search_flag_exit_2_before_brute_force(self, monkeypatch, capsys, flags):
        calls = []
        monkeypatch.setattr(cli, "brute_force", lambda *args: calls.append(args) or brute_force(*args))
        assert main(["oracle-check", "--max-servers", "3", "--max-vms", "9", *flags]) == 2
        assert calls == []
        assert_one_error_line(capsys)


class TestCliUnknownAlgorithm:
    @pytest.mark.parametrize("command", ["solve", "bench", "oracle-check"])
    def test_exit_3_writes_nothing(self, tmp_path, capsys, command):
        inst = tmp_path / "inst.json"
        write_split_instance(inst)
        out = tmp_path / "out" / "x.json"
        argv = {
            "solve": ["solve", str(inst), "--algorithm", "tabu", "--out", str(out)],
            "bench": ["bench", "--vm-counts", "8", "--servers", "4", "--reps", "1",
                      "--algorithms", "ffd", "tabu", "--out", str(out)],
            "oracle-check": ["oracle-check", "--count", "1", "--algorithms", "ffd", "tabu"],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
        assert list(tmp_path.iterdir()) == [inst]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "inst.json"
        # the subprocess does not get pytest's pythonpath, so put the checkout's src first
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "vmplace", "generate", "--servers", "2",
             "--vms", "5", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert out.exists()
