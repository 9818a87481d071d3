"""Every ``repro`` name the benchmarks and examples import still exists.

CI runs only some of the ``benchmarks/bench_*.py`` modules, and a
benchmark or example that imports inside a function body fails only
when that function runs.  A deletion in ``src/`` that one of them still
needs would therefore go unnoticed.  This test parses each of those
files with :mod:`ast`, collects every ``import repro...`` and
``from repro... import ...`` anywhere in it (function bodies included),
and resolves each name without running the file.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    [*(ROOT / "benchmarks").rglob("*.py"), *(ROOT / "examples").glob("*.py")]
)


def _repro_imports(path):
    """``(line, module, name)`` for each repro import in ``path``; ``name``
    is ``None`` for a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, node.module, alias.name


def _importable(module):
    try:
        importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    return True


def _resolves(module, name):
    if not _importable(module):
        return False
    if name is None or name == "*":
        return True
    # ``from repro import analysis`` may name a submodule.
    return (hasattr(importlib.import_module(module), name)
            or _importable(f"{module}.{name}"))


def test_the_scan_sees_the_entry_points():
    names = {p.relative_to(ROOT).as_posix() for p in FILES}
    assert "benchmarks/bench_ablations.py" in names
    assert "benchmarks/e2e/ops.py" in names
    assert "examples/quickstart.py" in names
    # Imports inside function bodies are part of the scan.
    ablations = list(_repro_imports(ROOT / "benchmarks" / "bench_ablations.py"))
    assert ("repro.core.oracle", "OracleSelector") in {
        (module, name) for _, module, name in ablations}


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_repro_import_resolves(path):
    missing = [f"{path.name}:{line}: {module}"
               + ("" if name is None else f".{name}")
               for line, module, name in _repro_imports(path)
               if not _resolves(module, name)]
    assert missing == []
