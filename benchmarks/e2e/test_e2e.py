"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs the benchmark itself (one repetition per workload, so about two
minutes) and checks its contract: every metric printed with its unit,
no failed op, a tampered reference digest failing the run, exact layer
tiling, and the serve-steady static-block op reproducing the tracked
``BENCH_perf.json`` serve row.
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def reference():
    return json.loads(run.REFERENCE.read_text())


def one_rep(workloads, trace, ref):
    """(result object, printed report) of a one-repetition run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        summaries = run.benchmark(workloads, 0, trace, ref, reps=1)
    return json.loads(run.result_line(summaries, trace)), out.getvalue()


@pytest.fixture(scope="module")
def untraced():
    return one_rep(run.WORKLOADS, False, reference())


@pytest.fixture(scope="module")
def traced():
    return one_rep(run.WORKLOADS, True, reference())


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": x}
        for n, u, b, x in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b}
        for n, (u, b) in run.PER_LAYER.items()]


def test_untraced_run_prints_every_metric_and_fails_nothing(untraced):
    out, text = untraced
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    for workload in run.WORKLOADS:
        for name, unit, _better, _bound in run.END_TO_END:
            metric = out["metrics"][f"{workload}:{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    for name, unit, _better, _bound in run.END_TO_END:
        assert len(re.findall(rf"^  {name} +\S+ {re.escape(unit)} ",
                              text, re.M)) == len(run.WORKLOADS)
    for name, unit, workloads in run.WORKLOAD_METRICS:
        assert len(re.findall(rf"^  {name} +\S+ {re.escape(unit)} ",
                              text, re.M)) == len(workloads)
    rates = re.findall(r"^  error_rate +(\S+) ratio", text, re.M)
    assert rates == ["0"] * len(run.WORKLOADS)


def test_traced_run_prints_every_layer_metric(traced):
    out, _text = traced
    assert out["correct"] and out["failed"] == 0
    for workload in run.WORKLOADS:
        for name, (unit, _better) in run.PER_LAYER.items():
            assert out["metrics"][f"{workload}:{name}"]["unit"] == unit


def test_layer_self_times_tile_the_traced_wall(traced):
    metrics = traced[0]["metrics"]
    for workload in run.WORKLOADS:
        def value(name):
            return metrics[f"{workload}:{name}"]["value"]
        wall = value("trace.wall_s")
        unattributed = value("trace.unattributed_s")
        tiled = sum(value(name) for name in run.SELF_TIMES) + unattributed
        assert tiled == pytest.approx(wall, rel=1e-9)
        assert unattributed <= run.UNATTRIBUTED_LIMIT * wall


def test_tampered_reference_fails_the_run():
    ref = reference()
    op = ref["0"]["task-sweep"]["MGPS@8"]
    op["digest"] = "0" * len(op["digest"])
    out, text = one_rep(["task-sweep"], False, ref)
    assert not out["correct"] and out["failed"] >= 1
    assert "MGPS@8: output differs from the reference" in text


def test_serve_steady_static_block_reproduces_bench_perf():
    import ops

    row = json.loads((ROOT / "BENCH_perf.json").read_text())["scenarios"]["serve"]
    op = ops.build("serve-steady", 0)[0]
    assert op.name == "static-block"
    out = op.call()
    assert out.events_processed == row["events"] == 86160
    assert out.summary["completed"] == row["jobs"] == 13564


def test_without_program_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "llp-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
