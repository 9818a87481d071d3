"""Module paths and ``repro`` names in the design docs still exist.

DESIGN.md's tables name modules by path (``repro/phylo/``, with the
package's modules in parentheses, or ``phylo/tree.py``) and code by
package-relative dotted name (``core.edtlp``), and the prose of
DESIGN.md, docs/ARCHITECTURE.md, docs/TUTORIAL.md and README.md names
code as dotted ``repro.x.y``.  A deletion in ``src/`` leaves those
behind silently; this test resolves each one.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
# Top-level directories a table may name that live outside the package.
REPO_DIRS = ("benchmarks", "docs", "examples", "tests")
DOTTED_DOCS = ("DESIGN.md", "docs/ARCHITECTURE.md", "docs/TUTORIAL.md",
               "README.md")

_PATH = re.compile(r"^(?:repro/)?[a-z_]+(?:/[a-z_0-9]+)*(?:/|\.py)?$")
_PACKAGE_LIST = re.compile(r"`repro/([a-z_/]+)/` \(((?:`[a-z_]+`(?:, )?)+)\)")
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
_PACKAGES = sorted(p.name for p in SRC.iterdir() if (p / "__init__.py").exists())
_RELATIVE = re.compile(rf"^(?:{'|'.join(_PACKAGES)})(?:\.[A-Za-z_]+)+$")


def _table_rows():
    lines = (ROOT / "DESIGN.md").read_text().splitlines()
    return [(n, line) for n, line in enumerate(lines, 1)
            if line.startswith("|")]


def _design_paths():
    """``(line, path)`` for every backticked module path in the tables."""
    for n, row in _table_rows():
        for token in re.findall(r"`([^`]+)`", row):
            if "/" in token and _PATH.match(token):
                yield n, token
        for package, names in _PACKAGE_LIST.findall(row):
            for name in re.findall(r"`([a-z_]+)`", names):
                yield n, f"repro/{package}/{name}"


def _resolves(path):
    if path.split("/")[0] in REPO_DIRS:
        return (ROOT / path).exists()
    rel = path[len("repro/"):] if path.startswith("repro/") else path
    target = SRC / rel.rstrip("/")
    if path.endswith("/"):
        return target.is_dir()
    return target.exists() or target.with_suffix(".py").exists()


def _dotted_names():
    for n, row in _table_rows():
        for token in re.findall(r"`([^`]+)`", row):
            if _RELATIVE.match(token.removesuffix(".*")):
                yield f"DESIGN.md:{n}", "repro." + token.removesuffix(".*")
    for doc in DOTTED_DOCS:
        for n, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            for name in _DOTTED.findall(line):
                yield f"{doc}:{n}", name


def _resolve_dotted(name):
    """Import the longest module prefix of ``name``, then walk attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


PATHS = sorted(set(_design_paths()))
NAMES = sorted(set(_dotted_names()))


def test_the_docs_name_something():
    assert len(PATHS) > 40
    assert any(path == "repro/mpi/process" for _, path in PATHS)
    assert len(NAMES) > 15


@pytest.mark.parametrize("line,path", PATHS,
                         ids=[f"DESIGN.md:{n}:{p}" for n, p in PATHS])
def test_design_table_path_resolves(line, path):
    assert _resolves(path), (
        f"DESIGN.md line {line} names {path!r}, which is not under src/repro"
    )


@pytest.mark.parametrize("where,name", NAMES,
                         ids=[f"{w}:{name}" for w, name in NAMES])
def test_dotted_repro_name_resolves(where, name):
    try:
        _resolve_dotted(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{where} names {name!r}, which does not resolve: {exc}")
