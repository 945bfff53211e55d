"""The benchmark tracer's patch points exist and are put back after a traced run.

``perfbench/tracing.py`` patches private names of the package; loading it by
path and installing it here makes a renamed or deleted name fail in the test
suite rather than only under ``perfbench/run.py --trace 1``.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import vmplace
from vmplace.objectives import _fits, batch_loads

from conftest import make_problem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_attribute_back():
    tracing = load_tracing()
    owners = (vmplace.cuckoo, vmplace.baselines, vmplace.cuckoo.ParetoArchive)
    before = {id(owner): dict(owner.__dict__) for owner in owners}
    saved = tracing.install(tracing.Tracer(), vmplace)
    try:
        assert saved
        for owner, attr, original in saved:
            assert original is before[id(owner)][attr]
            assert owner.__dict__[attr] is not original
    finally:
        tracing.restore(saved)
    for owner, attr, _ in saved:
        assert owner.__dict__[attr] is before[id(owner)][attr]


def test_traced_solve_records_archive_offer_and_rejects():
    """``offer`` makes its member pre-check through ``rejects``, so both spans record calls."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    problem = vmplace.generate_instance(vmplace.GeneratorConfig(m=3, n=6, seed=4))
    config = vmplace.SolverConfig(pop_size=6, max_cycles=2, seed=1)
    saved = tracing.install(tracer, vmplace)
    try:
        tracing.wrap_solver(tracer, "lamocs", vmplace.cuckoo.solve)(problem, config)
    finally:
        tracing.restore(saved)
    calls = Counter(tracer.names)
    # one offer for the initial population and one per cycle, each with its pre-check
    assert calls["cuckoo.archive.offer"] == 3
    assert calls["cuckoo.archive.rejects"] == 3


def fits_by_hand(problem, row) -> bool:
    """No server of a 0-based row overloaded, summed from the problem's own resource vectors."""
    for j, server in enumerate(problem.servers):
        hosted = [vm for vm, s in zip(problem.vms, row) if s == j]
        if sum(vm.cpu for vm in hosted) > server.cpu or sum(vm.mem for vm in hosted) > server.mem:
            return False
    return True


def test_traced_loads_counts_match_untraced_rules(monkeypatch):
    """The tracer's reading of ``batch_loads`` (cpu, mem, count) agrees with the package's rules.

    Every row a traced GA solve evaluates is checked again by hand, untraced:
    its loads from ``batch_loads`` and its overload from ``_fits``, which must
    agree with sums over the resource vectors.  A loads array that still
    unpacks three ways but in another order fails one of the two checks.
    """
    cuckoo = vmplace.cuckoo
    tracing = load_tracing()
    tracer = tracing.Tracer()
    # mem sizes are on four times the cpu scale, so a swapped reading shows;
    # about half the rows overload a server
    draws = np.random.default_rng(1).uniform(1.5, 5.0, (2, 10))
    problem = make_problem([(10, 40)] * 4, [(c, 4 * m) for c, m in draws.T.tolist()])
    config = vmplace.GaConfig(pop_size=8, generations=3, seed=2)
    evaluated = []  # (rows before repair, number of rows the repair changed)
    original = cuckoo._evaluate_rows

    def recording(problem, rows, *args, **kwargs):
        before = rows.copy()
        result = original(problem, rows, *args, **kwargs)
        evaluated.append((before, result[0].size))
        return result

    monkeypatch.setattr(cuckoo, "_evaluate_rows", recording)
    saved = tracing.install(tracer, vmplace)
    try:
        tracing.wrap_solver(tracer, "ga", vmplace.baselines.solve_ga)(problem, config)
    finally:
        tracing.restore(saved)

    infeasible = 0
    for rows, _ in evaluated:
        loads = batch_loads(problem, rows)
        fits = _fits(problem, loads[:2]).all(axis=(0, 2))
        assert fits.tolist() == [fits_by_hand(problem, row) for row in rows.tolist()]
        infeasible += int((~fits).sum())
    assert 0 < infeasible < sum(len(rows) for rows, _ in evaluated)
    assert tracer.counts["cuckoo.evaluate.infeasible"] == infeasible
    # each evaluate loads its whole batch, then the rows the repair changed
    assert tracer.counts["objectives.batch_loads.rows"] == sum(len(rows) + moved for rows, moved in evaluated)
