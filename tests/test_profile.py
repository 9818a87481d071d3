"""Tests for the wall-time layer ledger (:mod:`repro.obs.ledger`).

Tier-1 guarantees:

* **Determinism** — the same seeded workload recorded twice yields the
  identical layer names, call counts and counters; only the wall-time
  fields differ between runs.
* **Never perturbs** — a run under a ledger is bit-identical to a plain
  run: same makespan, same digests, same event counts.  The ledger
  wraps boundaries from outside and restores them on exit.
* **Tiling** — layer self times plus the unattributed remainder equal
  the wall time, and no self time is negative.
* The span arithmetic itself (self vs total under nesting, p50/p95),
  the report shape and the exporters (text table, Chrome trace-event
  spans).
* The three surfaces: ``repro profile`` (table, ``--json`` and
  ``--perfetto``), the ``#perf`` report lane, and the
  :func:`measure_throughput` grid.
"""

import json

import pytest

import repro.obs.ledger
from repro.cell.params import BladeParams, CellParams
from repro.cli import main
from repro.core.llp import LoopParallelModel
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.obs import Ledger, MetricsRegistry, render_ledger, render_report
from repro.obs.bench import measure_throughput
from repro.obs.ledger import boundaries, events_per_second, write_ledger_trace
from repro.sim.engine import Environment
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload


def _small_workload():
    return Workload(bootstraps=2, tasks_per_bootstrap=40, seed=0)


def _run(tracer=None, metrics=None):
    return run_experiment(
        mgps(), _small_workload(), blade=BladeParams(), seed=0,
        tracer=tracer, metrics=metrics,
    )


def _recorded(tracer=None, metrics=None):
    ledger = Ledger()
    with ledger.run("fig8"):
        result = _run(tracer=tracer, metrics=metrics)
    return ledger, result


def _assert_tiles(report):
    layers = report["layers"]
    assert all(row["self_s"] >= 0.0 for row in layers.values())
    assert report["unattributed_s"] >= 0.0
    total = report["unattributed_s"] + sum(
        row["self_s"] for row in layers.values())
    assert abs(total - report["wall_s"]) <= 1e-9 * report["wall_s"]


# -- span arithmetic ----------------------------------------------------------

class TestProfiler:
    def test_section_nesting_splits_self_and_total(self):
        # Hand-written spans make wall time deterministic: the root runs
        # 0..10 s, "outer" 1..9 s, and "inner" 2..5 s inside it.
        ledger = Ledger()
        ledger.spans[:] = [
            (3, 2, "inner", 2.0, 5.0, 0),
            (2, 1, "outer", 1.0, 9.0, 0),
            (1, 0, "fig8", 0.0, 10.0, 0),
        ]
        report = ledger.report()
        outer = report["layers"]["outer"]
        inner = report["layers"]["inner"]
        assert outer["total_s"] == pytest.approx(8.0)
        assert outer["self_s"] == pytest.approx(5.0)  # 8 - 3 in child
        assert inner["total_s"] == pytest.approx(3.0)
        assert inner["self_s"] == pytest.approx(3.0)
        assert outer["calls"] == inner["calls"] == 1
        assert report["wall_s"] == pytest.approx(10.0)
        assert report["unattributed_s"] == pytest.approx(2.0)
        _assert_tiles(report)

    def test_percentiles_from_span_durations(self):
        ledger = Ledger()
        ledger.spans[:] = [
            (i + 2, 1, "leaf", 0.0, i * 1e-6, 0) for i in range(1, 101)
        ] + [(1, 0, "fig8", 0.0, 1.0, 0)]
        row = ledger.report()["layers"]["leaf"]
        assert row["calls"] == 100
        assert row["p50_us"] == pytest.approx(50.0)
        assert row["p95_us"] == pytest.approx(95.0)

    def test_call_times_and_passes_through(self):
        ledger = Ledger()
        with ledger.run("unit"):
            env = Environment()

            def proc():
                yield env.timeout(1.0)
                return 42

            assert env.run_until_complete(env.process(proc())) == 42
            with pytest.raises(ValueError):
                LoopParallelModel(CellParams()).invoke(None, 0)
        report = ledger.report()
        assert report["layers"]["sim"]["calls"] == 1
        assert report["layers"]["llp.invoke"]["calls"] == 1
        assert report["counters"]["sim.events"] == env.events_processed

    def test_wrappers_restored_on_exit(self):
        before = [getattr(owner, attr) for owner, attr, _ in boundaries()]
        ledger = Ledger()
        with pytest.raises(RuntimeError):
            with ledger.run("boom"):
                assert Environment.run_until_complete is not before[0]
                raise RuntimeError("boom")
        after = [getattr(owner, attr) for owner, attr, _ in boundaries()]
        assert all(a is b for a, b in zip(before, after))

    def test_report_shape(self):
        ledger, _ = _recorded()
        report = ledger.report()
        assert set(report) == {
            "wall_s", "unattributed_s", "layers", "counters", "rates",
        }
        assert set(report["layers"]["sim"]) == {
            "calls", "total_s", "self_s", "p50_us", "p95_us",
        }

    def test_events_per_second_prefers_simulate_section(self):
        layers = {"sim": {"self_s": 2.0}}
        assert events_per_second(100, layers, 50.0) == pytest.approx(50.0)
        assert events_per_second(100, {}, 50.0) == pytest.approx(2.0)
        assert events_per_second(100, {}, 0.0) == 0.0

    def test_span_collection_is_bounded(self, monkeypatch):
        ledger, _ = _recorded()
        assert len(ledger.spans) > 3
        monkeypatch.setattr(repro.obs.ledger, "_MAX_EXPORT_SPANS", 3)
        events = ledger.chrome_events()
        assert sum(e["ph"] == "X" for e in events) == 3


# -- determinism and the never-perturbs gate ----------------------------------

class TestDeterminism:
    def test_section_tree_and_counts_identical_across_runs(self):
        rep_a, rep_b = _recorded()[0].report(), _recorded()[0].report()
        # Identical tree: same layer names, same call counts.
        assert sorted(rep_a["layers"]) == sorted(rep_b["layers"])
        calls_a = {k: v["calls"] for k, v in rep_a["layers"].items()}
        calls_b = {k: v["calls"] for k, v in rep_b["layers"].items()}
        assert calls_a == calls_b
        # Identical counters, including the kernel gauges.
        assert rep_a["counters"] == rep_b["counters"]
        # Wall time is the only thing allowed to vary.
        assert rep_a["counters"]["sim.events"] > 0

    def test_profiler_off_leaves_run_bit_identical(self):
        off = _run()
        _, on = _recorded()
        assert off.makespan == on.makespan
        assert off.offloads == on.offloads
        assert off.result_digest == on.result_digest
        assert off.bootstrap_digests == on.bootstrap_digests
        assert off.events_processed == on.events_processed

    def test_events_processed_matches_sim_span(self):
        ledger, result = _recorded()
        report = ledger.report()
        assert report["counters"]["sim.events"] == result.events_processed
        (sim,) = [s for s in ledger.spans if s[2] == "sim"]
        assert sim[5] == result.events_processed
        # The one dispatch loop batches every event.
        assert report["counters"]["sim.batch_advance_fraction"] == 1.0
        assert 0.0 < report["counters"]["sim.pool_hit_rate"] <= 1.0

    @pytest.mark.parametrize("scenario", ["fig8", "serve"])
    def test_layer_self_times_tile_wall_time(self, scenario, capsys):
        assert main(["profile", "--scenario", scenario, "--bootstraps", "2",
                     "--tasks", "40", "--json"]) == 0
        _assert_tiles(json.loads(capsys.readouterr().out))


# -- exporters ----------------------------------------------------------------

class TestExport:
    def test_render_profile_table(self):
        ledger, _ = _recorded()
        text = render_ledger(ledger.report(), sort="self", top=5,
                             title="unit test")
        assert "unit test" in text
        assert "events/s" in text
        assert "unattributed" in text
        assert "sim " in text
        assert "counters:" in text

    def test_render_profile_sort_keys(self):
        ledger, _ = _recorded()
        report = ledger.report()
        for sort in ("self", "total", "calls"):
            assert render_ledger(report, sort=sort)
        # Unknown sort keys fall back to self-time ordering.
        assert render_ledger(report, sort="bogus") == render_ledger(
            report, sort="self"
        )

    def test_chrome_events_need_kept_spans(self):
        assert [e["ph"] for e in Ledger().chrome_events()] == ["M"]
        ledger, _ = _recorded()
        events = ledger.chrome_events()
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(ledger.spans)  # complete wall spans
        assert all(e["pid"] == 1000 for e in events)
        assert {"sim", "fig8"} <= {e["name"] for e in spans}
        assert min(e["ts"] for e in spans) == 0.0

    def test_write_profile_trace_merges_sim_and_wall(self, tmp_path):
        tracer = Tracer(enabled=True)
        ledger, _ = _recorded(tracer=tracer)
        path = tmp_path / "trace.json"
        write_ledger_trace(tracer, ledger, path)
        doc = json.loads(path.read_text())
        pids = {e.get("pid") for e in doc["traceEvents"]}
        assert 1000 in pids          # wall-time lane
        assert pids - {1000}         # at least one sim-time lane


# -- the three surfaces -------------------------------------------------------

class TestSurfaces:
    def test_cli_profile_json(self, capsys):
        rc = main(["profile", "--scenario", "fig8", "--bootstraps", "2",
                   "--tasks", "40", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counters"]["sim.events"] > 0
        assert report["rates"]["events_per_wall_second"] > 0
        assert {"sim", "runtime.decide", "obs.emit"} <= set(report["layers"])

    def test_cli_profile_table_and_perfetto(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        rc = main(["profile", "--scenario", "fig8", "--bootstraps", "2",
                   "--tasks", "40", "--sort", "calls", "--perfetto",
                   str(out)])
        assert rc == 0
        assert "wall-time layer ledger" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_report_perf_lane_populated(self):
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        ledger, _ = _recorded(tracer=tracer, metrics=metrics)
        html = render_report(tracer, metrics, profile=ledger.report())
        assert 'id="perf"' in html
        assert "self (exclusive) time" in html
        assert "runtime.decide" in html
        assert "unattributed" in html

    def test_report_perf_lane_empty_state(self):
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        _run(tracer=tracer, metrics=metrics)
        html = render_report(tracer, metrics)
        assert 'id="perf"' in html
        assert "No wall-time ledger recorded" in html

    def test_measure_throughput_grid_shape(self):
        grid = measure_throughput(bootstraps=1, tasks=30, seed=0,
                                  duration_s=120.0, reps=1)
        assert set(grid) == {"workload", "scenarios"}
        fig8 = grid["scenarios"]["fig8"]
        serve = grid["scenarios"]["serve"]
        assert fig8["events"] > 0
        assert fig8["events_per_sec_wall"] > 0
        assert serve["jobs"] >= 0
        assert serve["events_per_sec_wall"] > 0
        # Event/job counts are deterministic for a fixed workload.
        again = measure_throughput(bootstraps=1, tasks=30, seed=0,
                                   duration_s=120.0, reps=1)
        assert again["scenarios"]["fig8"]["events"] == fig8["events"]
        assert again["scenarios"]["serve"]["events"] == serve["events"]
        assert again["scenarios"]["serve"]["jobs"] == serve["jobs"]
