"""The benchmark tracer's patch points exist and are put back after a traced run.

``perfbench/tracing.py`` patches private names of the package; loading it by
path and installing it here makes a renamed or deleted name fail in the test
suite rather than only under ``perfbench/run.py --trace 1``.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import vmplace

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
