"""The benchmark tracer's patch points exist and are put back after a traced run.

``perfbench/tracing.py`` patches private names of the package; loading it by
path and installing it here makes a renamed or deleted name fail in the test
suite rather than only under ``perfbench/run.py --trace 1``.
"""

import importlib.util
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
