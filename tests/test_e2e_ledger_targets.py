"""The end-to-end benchmark's span recorder still attaches to the program.

``benchmarks/e2e/layers.py`` wraps public layer boundaries by name when
``run.py --trace`` runs, which neither the tier-1 suite nor CI does.  A
rename in ``src/`` (say, of ``LoopParallelModel.invoke`` or
``JobCompiler.compile``) would silently drop a layer from the ledger.
This test imports the recorder read-only and checks every target it
names, and that :mod:`repro.obs.ledger` wraps the same boundaries.
"""

import importlib.util
import pathlib

import repro.serve.fleet
from repro.obs.ledger import boundaries

LAYERS = (pathlib.Path(__file__).resolve().parent.parent
          / "benchmarks" / "e2e" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_e2e_target_resolves():
    layers = _load_layers()
    for owner, attr, name in layers.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    # The recorder's count hook on the serving layer's blade runs.
    assert callable(repro.serve.fleet.run_experiment)


def test_ledger_wraps_the_same_nineteen_boundaries():
    e2e = {(owner, attr, name) for owner, attr, name in _load_layers().TARGETS}
    ours = set(boundaries())
    assert ours == e2e
    assert len({name for _, _, name in ours}) == 19
