import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmplace import (
    GaConfig,
    GeneratorConfig,
    GeneratorError,
    Placement,
    PlacementProblem,
    PsoConfig,
    ResourceVector,
    ScalarWeights,
    SolverConfig,
    SweepConfig,
    generate_instance,
    read_instance,
    read_placement,
    write_instance,
    write_placement,
)
from vmplace.objectives import _assign0, batch_loads, batch_objectives, batch_scalarize

from conftest import make_problem


class TestResourceVector:
    def test_accepts_non_negative(self):
        rv = ResourceVector(0.0, 3.5)
        assert rv.cpu == 0.0 and rv.mem == 3.5

    @pytest.mark.parametrize("cpu,mem", [(-1, 2), (2, -0.5), (math.nan, 1), (1, math.inf)])
    def test_rejects_bad_values(self, cpu, mem):
        with pytest.raises(ValueError):
            ResourceVector(cpu, mem)


class TestPlacementProblem:
    def test_basic_shape(self, split_problem):
        assert split_problem.m == 2
        assert split_problem.n == 4
        assert split_problem.server_cpu.tolist() == [10.0, 10.0]
        assert not split_problem.server_cpu.flags.writeable

    def test_rejects_unbalanced_weights(self):
        with pytest.raises(ValueError):
            make_problem([(10, 10)], [(1, 1), (1, 1)], alpha=0.7, beta=0.5)

    def test_rejects_zero_demand_vm(self):
        with pytest.raises(ValueError):
            make_problem([(10, 10)], [(0.0, 1.0), (1, 1)])

    @pytest.mark.parametrize("server", [(0.0, 10.0), (10.0, 0.0), (0.0, 0.0)])
    def test_rejects_zero_capacity_server(self, server):
        # a zero capacity makes every utilization NaN
        with pytest.raises(ValueError, match="capacities must be strictly positive"):
            make_problem([(10, 10), server], [(1, 1), (1, 1)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PlacementProblem(servers=(), vms=(ResourceVector(1, 1),))


class TestPlacement:
    def test_one_based_entries(self):
        with pytest.raises(ValueError):
            Placement((0, 1))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Placement((1.5, 2.0))

    def test_validate_for(self, split_problem):
        Placement((1, 2, 1, 2)).validate_for(split_problem)
        with pytest.raises(ValueError):
            Placement((1, 2, 3, 1)).validate_for(split_problem)
        with pytest.raises(ValueError):
            Placement((1, 2)).validate_for(split_problem)

    def test_from_row_is_one_based_ints_and_inverts_assign0(self, split_problem):
        row = np.array([0, 1, 1, 0], dtype=np.int64)
        placement = Placement.from_row(row)
        assert placement.assign == (1, 2, 2, 1)
        assert all(type(v) is int for v in placement.assign)
        assert np.array_equal(_assign0(split_problem, placement), row)
        assert Placement.from_row(_assign0(split_problem, placement)) == placement


class TestGeneratorConfig:
    def test_rejects_fewer_vms_than_servers(self):
        with pytest.raises(ValueError):
            GeneratorConfig(m=5, n=4)

    def test_accepts_equal_counts(self):
        problem = generate_instance(GeneratorConfig(m=5, n=5, seed=3))
        assert len(problem.vms) == 5

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(m=2, n=5, cpu_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            GeneratorConfig(m=2, n=5, mem_range=(5.0, 2.0))

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            GeneratorConfig(m=2, n=5, demand_floor_ratio=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(m=2, n=5, demand_floor_ratio=0.0)


@pytest.mark.parametrize(
    ("config", "field", "value"),
    [
        (SolverConfig, "pop_size", 2.5),
        (SolverConfig, "max_cycles", 1.5),
        (GaConfig, "pop_size", 2.5),
        (GaConfig, "generations", 2.5),
        (PsoConfig, "pop_size", 2.5),
        (PsoConfig, "iterations", 1.5),
        (partial(GeneratorConfig, n=4), "m", 2.5),
        (partial(GeneratorConfig, m=2), "n", 4.5),
        (SweepConfig, "vm_counts", (20.7,)),
        (SweepConfig, "pop_sizes", (10.5,)),
        (SweepConfig, "m", 2.5),
        (SweepConfig, "reps", 1.5),
        (SweepConfig, "cycles", 1.5),
        (SweepConfig, "jobs", 1.5),
    ],
)
def test_count_fields_reject_non_integers(config, field, value):
    """Every count field of every config refuses a non-integer at construction, naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        config(**{field: value})


def _check_generator_invariants(problem: PlacementProblem, floor: float) -> None:
    mean_cpu = problem.server_cpu.mean()
    mean_mem = problem.server_mem.mean()
    assert problem.vm_cpu.max() < mean_cpu
    assert problem.vm_mem.max() < mean_mem
    assert problem.vm_cpu.sum() >= floor * problem.server_cpu.sum() - 1e-9
    assert problem.vm_mem.sum() >= floor * problem.server_mem.sum() - 1e-9


class TestGenerateInstance:
    def test_fixed_capacity_example(self):
        cfg = GeneratorConfig(m=3, n=10, cpu_range=(10, 10), mem_range=(16, 16), seed=42)
        problem = generate_instance(cfg)
        assert all(s.cpu == 10.0 and s.mem == 16.0 for s in problem.servers)
        assert problem.vm_cpu.sum() >= 0.9 * 30.0
        _check_generator_invariants(problem, 0.9)

    def test_seed_reproducible(self):
        cfg = GeneratorConfig(m=3, n=10, seed=42)
        a, b = generate_instance(cfg), generate_instance(cfg)
        assert a == b

    def test_single_server(self):
        cfg = GeneratorConfig(m=1, n=2, seed=7)
        problem = generate_instance(cfg)
        assert problem.vm_cpu.max() < problem.servers[0].cpu
        assert problem.vm_mem.max() < problem.servers[0].mem

    def test_unsatisfiable_floor_raises(self):
        # floor above 0.99 * n / m cannot be met with per-VM demands below the cap
        cfg = GeneratorConfig(m=100, n=101, demand_floor_ratio=0.99999)
        with pytest.raises(GeneratorError):
            generate_instance(cfg)

    def test_reachable_floor_with_repeated_clamping(self):
        # reachable (0.94 * 8 < 0.99 * 9), but clamping spills the excess onto
        # demands already at the cap; it must go only to those below it
        cfg = GeneratorConfig(m=8, n=9, seed=16415524, demand_floor_ratio=0.9411955865179567)
        _check_generator_invariants(generate_instance(cfg), cfg.demand_floor_ratio)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        extra=st.integers(1, 12),
        floor=st.floats(0.5, 0.95),
    )
    def test_invariants_hold(self, seed, m, extra, floor):
        cfg = GeneratorConfig(m=m, n=m + extra, seed=seed, demand_floor_ratio=floor)
        problem = generate_instance(cfg)
        _check_generator_invariants(problem, floor)
        assert generate_instance(cfg) == problem


class TestJsonIO:
    def test_instance_roundtrip(self, tmp_path, split_problem):
        path = tmp_path / "inst.json"
        write_instance(split_problem, path)
        assert read_instance(path) == split_problem

    def test_instance_write_is_byte_stable(self, tmp_path, split_problem):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(split_problem, a)
        write_instance(split_problem, b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert set(payload) == {"servers", "vms", "alpha", "beta"}
        assert payload["servers"][0] == {"cpu": 10.0, "mem": 10.0}

    def test_placement_roundtrip(self, tmp_path):
        path = tmp_path / "place.json"
        write_placement(Placement((1, 2, 2, 1)), path)
        assert read_placement(path).assign == (1, 2, 2, 1)
        assert json.loads(path.read_text()) == {"assign": [1, 2, 2, 1]}

    def test_malformed_instance_raises_value_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            read_instance(bad)
        bad.write_text(json.dumps({"servers": [{"cpu": 1}], "vms": []}))
        with pytest.raises(ValueError):
            read_instance(bad)
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            read_instance(bad)

    def test_zero_capacity_server_raises_value_error(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"servers": [{"cpu": 10, "mem": 0}], "vms": [{"cpu": 1, "mem": 1}]}))
        with pytest.raises(ValueError, match="capacities must be strictly positive"):
            read_instance(path)

    @pytest.mark.parametrize("field, edit", [
        ("servers[0].cpu", lambda d: d["servers"][0].update(cpu="10")),
        ("servers[1].mem", lambda d: d["servers"][1].update(mem=True)),
        ("vms[0].mem", lambda d: d["vms"][0].update(mem=True)),
        ("vms[1].cpu", lambda d: d["vms"][1].update(cpu=None)),
        ("alpha", lambda d: d.update(alpha="0.5")),
        ("beta", lambda d: d.update(beta=False)),
    ])
    def test_non_numeric_instance_value_raises_value_error(self, tmp_path, split_problem, field, edit):
        path = tmp_path / "inst.json"
        write_instance(split_problem, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a number")):
            read_instance(path)

    @pytest.mark.parametrize("assign", [[True, 2], [1, "2"], [1, None]])
    def test_non_numeric_assign_raises_value_error(self, tmp_path, assign):
        path = tmp_path / "place.json"
        path.write_text(json.dumps({"assign": assign}))
        with pytest.raises(ValueError, match=r"assign\[\d\] must be a number"):
            read_placement(path)

    def test_malformed_placement_raises_value_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"wrong": []}))
        with pytest.raises(ValueError):
            read_placement(bad)


class TestDemandMeasure:
    def test_matches_componentwise_formula(self):
        p = make_problem([(10, 20), (30, 20)], [(4, 8), (6, 2), (1, 1)])
        expected = 0.5 * p.vm_cpu / 20.0 + 0.5 * p.vm_mem / 20.0
        assert np.allclose(p.vm_demand_measure, expected)


class TestStackedArrays:
    def test_shapes_and_read_only(self):
        p = make_problem([(10, 20), (30, 40)], [(4, 8), (6, 2), (1, 1)], alpha=0.3, beta=0.7)
        assert p.capacity.tolist() == [[10.0, 30.0], [20.0, 40.0]]
        assert p.demand.tolist() == [[4.0, 6.0, 1.0], [8.0, 2.0, 1.0]]
        assert p.weight.tolist() == [0.3, 0.7] and p.mean_capacity.tolist() == [20.0, 30.0]
        for arr in (p.capacity, p.demand, p.weight, p.mean_capacity, p.server_mem, p.vm_cpu):
            assert not arr.flags.writeable

    def test_built_on_first_use(self):
        # building them at construction would add array work to every instance load
        p = make_problem([(10, 20)], [(4, 8)])
        assert not {"capacity", "demand", "weight", "mean_capacity"} & set(vars(p))

    @pytest.mark.parametrize("servers, vms, resource", [
        ([(5e-324, 16)] * 2, [(1, 1), (2, 2), (3, 3)], "cpu"),
        ([(10, 16)] * 3, [(1e200, 1)] * 2 + [(1, 1)] * 2, "cpu"),
        ([(10, 1e-160)] * 3, [(1, 1)] * 3, "mem"),
    ])
    def test_scale_that_overflows_is_refused_on_first_use(self, tmp_path, servers, vms, resource):
        """Every utilization, squared deviation and score must stay finite; construction still builds nothing."""
        p = make_problem(servers, vms)
        assert not {"capacity", "demand"} & set(vars(p))
        with pytest.raises(ValueError, match=f"^{resource} demands"):
            p.demand
        path = tmp_path / "inst.json"
        write_instance(p, path)
        with pytest.raises(ValueError, match=f"^{resource} demands"):
            read_instance(path)

    def test_scale_just_inside_the_bound_scores_finitely(self):
        # U = 0.5 * 2e153 / 10 = 1e152 and m * U**2 = 3e304; a weight of 0 leaves its resource out
        p = make_problem([(10, 16)] * 3, [(1e153, 1), (1e153, 1)])
        keys = batch_objectives(p, batch_loads(p, np.array([[0, 0], [0, 1]])))
        assert np.isfinite(batch_scalarize(keys, ScalarWeights())).all()
        assert make_problem([(5e-324, 16)] * 2, [(1, 1)], alpha=0.0, beta=1.0).demand.shape == (2, 1)

    def test_per_resource_views_stay_in_instance(self):
        """Outside ``instance.py`` the package reads the stacked arrays, never a cpu or mem view."""
        pattern = re.compile(r"\b(server_cpu|server_mem|vm_cpu|vm_mem|mean_cpu|mean_mem)\b")
        package = Path(__file__).resolve().parents[1] / "src" / "vmplace"
        hits = [
            f"{path.name}:{number}"
            for path in sorted(package.glob("*.py"))
            if path.name != "instance.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == []
