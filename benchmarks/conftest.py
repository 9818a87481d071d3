"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures, times the
harness with pytest-benchmark (``rounds=1`` — these are simulations, not
microbenchmarks), writes its artifact to gitignored ``benchmarks/out/``
and echoes it to the terminal report.

Artifacts are deterministic by construction: tables come from seeded
simulations, and JSON artifacts go through :func:`record_json`, which
serializes like the tracked baselines
(:func:`repro.obs.bench.write_baseline`: sorted keys, rounded floats) so
re-runs produce byte-identical files — except explicitly wall-clock
fields, which callers mark with a ``_wall`` suffix and which the
regression gate (``repro bench --check``) never compares.  The five
gated ``BENCH_*.json`` files at the repo root are written only by
``repro bench --write``; ``bench_obs_overhead.py`` is the one writer of
``BENCH_obs.json``.
"""

import json
import pathlib

import pytest

from repro.obs.bench import stable_payload, write_baseline

OUT_DIR = pathlib.Path(__file__).parent / "out"
REPO_ROOT = pathlib.Path(__file__).parent.parent

_collected = []


@pytest.fixture
def record_table():
    """Persist and display a rendered experiment table."""

    def _record(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        _collected.append((name, text))

    return _record


@pytest.fixture
def record_json():
    """Persist a JSON benchmark artifact deterministically.

    Serialized by :func:`repro.obs.bench.write_baseline`: keys sorted,
    floats rounded at any nesting depth, keys ending in ``_wall`` passed
    through untouched.  Artifacts land in ``benchmarks/out/``;
    ``root=True`` writes the repo-root ``BENCH_obs.json`` instead, the
    one tracked baseline the benchmark suite owns (commit the diff
    deliberately).
    """

    def _record(name: str, payload: dict, root: bool = False) -> pathlib.Path:
        OUT_DIR.mkdir(exist_ok=True)
        path = write_baseline(REPO_ROOT if root else OUT_DIR,
                              f"{name}.json", payload)
        _collected.append(
            (name, json.dumps(stable_payload(payload), sort_keys=True)))
        return path

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _collected:
        return
    terminalreporter.section("reproduced tables and figures")
    for name, text in _collected:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
