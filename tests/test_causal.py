"""Tests for causal span trees, attribution and windowed time series.

Acceptance surface of the latency-attribution PR: per-job serve trees
tile the sojourn exactly (reconciliation is asserted, and its failure
mode names the leaking span), off-load trees keep retry attempts as
siblings with the backoff wait on the critical path, a blade death
mid-job shows up as aborted/requeue phases without breaking
reconciliation, a run with zero completed jobs renders an explicit
empty state everywhere, and the windowed sampler is deterministic.
"""

import json

import pytest

from repro.cell.params import BladeParams
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.faults import FaultPlan
from repro.obs.attribution import (
    aggregate_breakdown,
    job_summary,
    publish_breakdown,
    render_explain,
    top_slowest,
)
from repro.obs.causal import (
    JobTree,
    PHASE_ORDER,
    ReconciliationError,
    SpanNode,
    build_job_trees,
    build_offload_trees,
    critical_path,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report
from repro.obs.timeseries import sample_timeseries
from repro.serve import (
    BladeKill,
    FleetFaultPlan,
    JobTemplate,
    ServeConfig,
    TenantSpec,
    default_tenants,
    run_service,
)
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload

SMALL = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60, variants=2)


def serve_trace(config=None):
    tracer = Tracer(enabled=True)
    result = run_service(
        config or ServeConfig(tenants=default_tenants(), seed=0),
        tracer=tracer,
    )
    return tracer, result


def fault_trace(fail_rate=0.4, seed=3, tasks=80):
    tracer = Tracer(enabled=True)
    result = run_experiment(
        mgps(), Workload(bootstraps=2, tasks_per_bootstrap=tasks, seed=0),
        blade=BladeParams(), seed=0, tracer=tracer,
        faults=FaultPlan(offload_fail_rate=fail_rate, seed=seed),
    )
    return tracer, result


# -- serve job trees ----------------------------------------------------------

class TestServeJobTrees:
    def test_every_completed_job_reconciles(self):
        tracer, result = serve_trace()
        trees = build_job_trees(tracer)
        completed = [t for t in trees.values() if t.status == "completed"]
        assert len(completed) == result.summary["completed"] > 0
        for tree in completed:
            tree.validate()           # raises on any leak
            total = sum(p.duration for p in tree.phases)
            assert total == pytest.approx(tree.sojourn, abs=1e-9)

    def test_phase_names_and_order(self):
        tracer, _ = serve_trace()
        for tree in build_job_trees(tracer).values():
            names = [p.name for p in tree.phases]
            assert set(names) <= set(PHASE_ORDER)
            if tree.status == "completed":
                assert names[0] == "admission"
                assert names[-1] in ("service", "service-aborted")

    def test_job_summary_shares_sum_to_one(self):
        tracer, _ = serve_trace()
        trees = build_job_trees(tracer)
        for row in top_slowest(trees, k=5):
            assert sum(row["phase_shares"].values()) == pytest.approx(
                1.0, abs=1e-6)
            assert row["dominant_phase"] in row["phases_s"]

    def test_breakdown_published_as_gauges(self):
        tracer, _ = serve_trace()
        trees = build_job_trees(tracer)
        breakdown = aggregate_breakdown(trees)
        metrics = MetricsRegistry()
        publish_breakdown(metrics, breakdown)
        snap = metrics.snapshot()
        assert snap["serve.breakdown.completed"]["value"] == \
            breakdown["completed"]
        assert any(name.startswith("serve.breakdown.") and "tenant=" in name
                   for name in snap)

    def test_attaching_tracer_changes_no_outcome(self):
        cfg = ServeConfig(tenants=default_tenants(), seed=0)
        _, traced = serve_trace(cfg)
        bare = run_service(cfg)
        assert traced.digest_map() == bare.digest_map()
        assert traced.summary == bare.summary


# -- off-load trees under faults ----------------------------------------------

class TestOffloadTrees:
    def test_tree_per_offload(self):
        tracer, result = fault_trace(fail_rate=0.0, seed=0)
        roots = build_offload_trees(tracer)
        assert len(roots) == result.offloads > 0

    def test_retry_attempts_are_siblings(self):
        tracer, _ = fault_trace()
        roots = build_offload_trees(tracer)
        retried = [r for r in roots
                   if sum(1 for n in r.walk()
                          if n.name.startswith("attempt[")) > 1]
        assert retried, "fault plan produced no retried off-loads"
        for root in retried:
            offload = root.children[0]
            names = [c.name for c in offload.children]
            attempts = [n for n in names if n.startswith("attempt[")]
            # attempt[i] siblings under one offload span, backoffs between
            assert attempts == [f"attempt[{i}]"
                                for i in range(len(attempts))]
            assert "backoff" in names

    def test_backoff_on_critical_path(self):
        tracer, _ = fault_trace()
        roots = build_offload_trees(tracer)
        for root in roots:
            path = [n.name for n in critical_path(root)]
            if "backoff" in path:
                # the failed attempt that caused the wait is on the path
                assert path.index("attempt[0]") < path.index("backoff")
                break
        else:
            pytest.fail("no critical path included a backoff wait")

    def test_ppe_fallback_ends_the_tree(self):
        tracer, _ = fault_trace()
        roots = build_offload_trees(tracer)
        fallbacks = [r for r in roots
                     if any(n.name == "ppe-fallback" for n in r.walk())]
        assert fallbacks, "fault plan produced no PPE fallbacks"
        for root in fallbacks:
            path = [n.name for n in critical_path(root)]
            assert path[-1] == "ppe-fallback"
            assert root.end == pytest.approx(
                max(n.end for n in root.walk()))

    def test_llp_fanout_join_determinant(self):
        tracer, _ = fault_trace(fail_rate=0.0, seed=0)
        roots = build_offload_trees(tracer)
        fanned = [r for r in roots
                  if any(n.name == "chunks" for n in r.walk())]
        assert fanned, "no off-load carried an LLP fan-out"
        root = fanned[0]
        chunks = next(n for n in root.walk() if n.name == "chunks")
        assert chunks.parallel
        path = critical_path(root)
        on_path = next(n for n in path if n.name.startswith("chunk["))
        assert on_path.end == max(c.end for c in chunks.children)


# -- blade death mid-job ------------------------------------------------------

class TestBladeDeath:
    def _cfg(self, **kw):
        base = dict(
            tenants=(TenantSpec("alpha", SMALL, arrival="poisson",
                                arrival_rate=0.1, priority=1,
                                deadline_s=900.0),),
            duration_s=900.0, seed=9, min_blades=3, max_blades=3,
            dispatch="least-loaded",
        )
        base.update(kw)
        return ServeConfig(**base)

    def test_failover_phases_reconcile(self):
        cfg = self._cfg(
            faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=300.0),)))
        tracer, result = serve_trace(cfg)
        assert result.summary["failovers"] > 0
        trees = build_job_trees(tracer)
        aborted = [t for t in trees.values()
                   if any(p.name.endswith("-aborted") or
                          p.name == "requeue" for p in t.phases)]
        assert aborted, "blade kill produced no aborted phases"
        for tree in trees.values():
            tree.validate()
        # failed-over jobs still complete and their requeue hop is real
        assert any(t.status == "completed" for t in aborted)

    def test_total_loss_is_explicit_everywhere(self):
        cfg = self._cfg(
            min_blades=1, max_blades=1,
            faults=FleetFaultPlan(kills=(BladeKill(blade=0, at=1.0),)))
        tracer, result = serve_trace(cfg)
        assert result.summary["completed"] == 0
        trees = build_job_trees(tracer)
        breakdown = aggregate_breakdown(trees)
        assert breakdown["completed"] == 0
        assert "note" in breakdown
        text = render_explain(trees, breakdown)
        assert "nothing to attribute" in text
        html = render_report(tracer, MetricsRegistry(), title="loss")
        assert "nothing to attribute" in html


# -- reconciliation failure mode ----------------------------------------------

class TestReconciliation:
    def _tree(self, phases):
        root = SpanNode("job", phases[0].start, phases[-1].end,
                        children=list(phases))
        return JobTree(job_id=7, tenant="t", template="x", variant=0,
                       status="completed", root=root)

    def test_gap_names_the_leaking_span(self):
        tree = self._tree([SpanNode("admission", 0.0, 2.0),
                           SpanNode("service", 3.0, 10.0)])
        with pytest.raises(ReconciliationError) as err:
            tree.validate()
        msg = str(err.value)
        assert "'admission'" in msg and "'service'" in msg
        assert "job 7" in msg

    def test_trailing_leak_named(self):
        root = SpanNode("job", 0.0, 10.0,
                        children=[SpanNode("admission", 0.0, 2.0),
                                  SpanNode("service", 2.0, 8.0)])
        tree = JobTree(job_id=8, tenant="t", template="x", variant=0,
                       status="completed", root=root)
        with pytest.raises(ReconciliationError) as err:
            tree.validate()
        assert "after final phase 'service'" in str(err.value)

    def test_job_summary_validates_first(self):
        tree = self._tree([SpanNode("admission", 0.0, 2.0),
                           SpanNode("service", 3.0, 10.0)])
        with pytest.raises(ReconciliationError):
            job_summary(tree)

    def test_repeated_non_canonical_phases_sum(self):
        tree = self._tree([SpanNode("admission", 0.0, 1.0),
                           SpanNode("weird", 1.0, 2.0),
                           SpanNode("requeue", 2.0, 2.0),
                           SpanNode("weird", 2.0, 5.0)])
        durations = tree.phase_durations()
        assert durations == {"admission": 1.0, "requeue": 0.0, "weird": 4.0}
        assert list(durations) == ["admission", "requeue", "weird"]
        assert sum(durations.values()) == tree.sojourn == 5.0
        durations["weird"] = 0.0            # callers get their own copy
        assert tree.phase_durations()["weird"] == 4.0


# -- windowed time series -----------------------------------------------------

class TestTimeseries:
    def test_deterministic_and_shaped(self):
        a = sample_timeseries(serve_trace()[0])
        b = sample_timeseries(serve_trace()[0])
        assert a.to_dict() == b.to_dict()
        assert a.n_buckets == 60
        assert "queue_depth" in a.series and "in_flight" in a.series
        assert all(len(v) == a.n_buckets for v in a.series.values())

    def test_utilization_bounded(self):
        ts = sample_timeseries(serve_trace()[0])
        u_series = [v for k, v in ts.series.items() if k.endswith(".u")]
        assert u_series
        for series in u_series:
            assert all(0.0 <= x <= 1.0 + 1e-9 for x in series)

    def test_empty_trace(self):
        ts = sample_timeseries(Tracer(enabled=True))
        assert ts.n_buckets == 0
        assert ts.series == {}

    def test_json_round_trip(self):
        ts = sample_timeseries(serve_trace()[0])
        assert json.loads(json.dumps(ts.to_dict())) == ts.to_dict()


# -- CLI ----------------------------------------------------------------------

class TestExplainCli:
    def test_serve_json(self, capsys):
        from repro.cli import main
        assert main(["explain", "--top", "3", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenario"] == "serve"
        assert len(out["jobs"]) == 3
        for row in out["jobs"]:
            assert sum(row["phase_shares"].values()) == pytest.approx(
                1.0, abs=1e-6)

    def test_serve_text(self, capsys):
        from repro.cli import main
        assert main(["explain", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out or "admission" in out

    def test_missing_job_exits_nonzero(self, capsys):
        from repro.cli import main
        assert main(["explain", "--job", "999999"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_core_scenario(self, capsys):
        from repro.cli import main
        assert main(["explain", "fig8", "--tasks", "60", "--top", "2",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenario"] == "fig8"
        assert out["offloads"] > 0
        assert len(out["slowest"]) == 2


# -- report lane --------------------------------------------------------------

class TestReportLane:
    def test_serve_report_has_attribution(self):
        tracer, _ = serve_trace()
        metrics = MetricsRegistry()
        trees = build_job_trees(tracer)
        publish_breakdown(metrics, aggregate_breakdown(trees))
        html = render_report(tracer, metrics, title="t")
        assert 'id="latency"' in html
        assert "Sojourn phase breakdown" in html
        assert "phase-bar" in html and "spark" in html
        assert "<script" not in html

    def test_core_report_unchanged_by_lane(self):
        tracer, _ = fault_trace(fail_rate=0.0, seed=0)
        html = render_report(tracer, MetricsRegistry(), title="t")
        assert 'id="latency"' in html
        assert "Sojourn phase breakdown" not in html
