"""End-to-end smoke tests: every example must run and tell its story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "EDTLP" in out
    assert "speedup" in out


def test_scheduler_comparison():
    out = run_example("scheduler_comparison.py")
    assert "MGPS" in out
    assert "crossover" in out.lower() or "stops beating" in out


def test_multicell_scaling():
    out = run_example("multicell_scaling.py")
    assert "two Cells" in out


def test_platform_comparison():
    out = run_example("platform_comparison.py")
    assert "Power5" in out and "Xeon" in out


def test_schedule_timeline():
    out = run_example("schedule_timeline.py")
    assert "SPE timeline" in out
    assert out.count("|") > 20  # drew the rows


def test_hybrid_mpi_workload():
    out = run_example("hybrid_mpi_workload.py")
    assert "straggler" in out


@pytest.mark.slow
def test_raxml_bootstrap_analysis():
    out = run_example("raxml_bootstrap_analysis.py")
    assert "log-likelihood" in out
    assert "EDTLP" in out and "MGPS" in out


def test_custom_policy():
    out = run_example("custom_policy.py")
    assert "greedy" in out.lower()
    assert "MGPS" in out


def test_cellsdk_by_hand():
    out = run_example("cellsdk_by_hand.py")
    assert "Hand-rolled" in out
    assert "EDTLP runtime" in out


def test_serving_demo():
    out = run_example("serving_demo.py")
    assert "0 lost" in out
    assert "identical to the fault-free run" in out
