"""The single-pass run fold against the per-lane scans it replaced.

Each ``reference_*`` function below is one of the scans the HTML report,
the health monitor and the ASCII timeline used to run on their own,
written the plain way: it walks :class:`~repro.sim.trace.TraceRecord`
views through ``tracer.records``/``tracer.filter`` and reads payloads
with ``rec.get``.  :func:`repro.obs.runview.read_run` folds the raw rows
once instead; on every run shape below (a Figure-8 MGPS run, an offline
fault run, a resilient serving run with a blade kill, a bootstopped
workflow DAG, a chaos plan, a JSONL round-trip and a tracer-only run
without a registry) every reference must equal the fold's fields.
"""

import html
import re
from typing import Any, Dict, List, Tuple

import pytest

from repro.analysis import extract_spans, registry_value
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.faults import FaultPlan, SPEKill
from repro.obs import MetricsRegistry, analyze_run, render_report
from repro.obs.report import _adaptation_series, _llp_schedule_note
from repro.obs.runview import (
    FAULT_EVENT_LABELS,
    SERVE_FAULT_EVENTS,
    SERVE_OPS_EVENTS,
    WORKFLOW_EVENTS,
    read_run,
)
from repro.serve import (
    BladeKill,
    BootstopConfig,
    DagConfig,
    FleetFaultPlan,
    ResilienceConfig,
    ServeConfig,
    default_tenants,
    raxml_workflow,
    run_dag,
    run_service,
)
from repro.serve.chaos import (
    ChaosConfig,
    chaos_serve_config,
    random_fleet_fault_plan,
)
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload

# The fault lane's serve events as they were listed before the set was
# derived from the two label tables.
FORMER_SERVE_FAULT_EVENTS = frozenset({
    "blade-kill", "blade-slow", "blade-recover", "blade-flap",
    "blade-rejoin", "link-degrade", "link-restore", "breaker",
    "hedge", "hedge-win", "hedge-cancel", "deadline-abort",
})


# -- the former scans -----------------------------------------------------------

def reference_makespan(tracer, registry) -> float:
    inst = registry.get("run.raw_makespan_s") if registry is not None else None
    if inst is not None and inst.value > 0:
        return float(inst.value)
    if tracer is not None and tracer.records:
        return max(r.time for r in tracer.records)
    return 0.0


def reference_n_spes(tracer, registry) -> int:
    inst = registry.get("run.n_spes") if registry is not None else None
    n = int(inst.value) if inst is not None else 0
    if n > 0:
        return n
    if tracer is not None:
        actors = {r.actor for r in tracer.records if r.category == "spe"}
        if actors:
            return len(actors)
    return 8


def reference_spe_lanes(tracer, registry, makespan):
    lanes: Dict[str, List[Tuple[float, float, str, str]]] = {}
    if registry is not None:
        for name in registry.names():
            if name.startswith('spe.utilization{spe="'):
                lanes.setdefault(name[len('spe.utilization{spe="'):-2], [])
    open_at: Dict[str, Tuple[float, str, str]] = {}
    for r in (tracer.records if tracer is not None else ()):
        if r.category != "spe":
            continue
        if r.event == "task_start":
            role = "worker" if r.get("role") == "worker" else "master"
            open_at[r.actor] = (r.time, role, str(r.get("function", "")))
            lanes.setdefault(r.actor, [])
        elif r.event == "task_end" and r.actor in open_at:
            t0, role, fn = open_at.pop(r.actor)
            lanes[r.actor].append((t0, r.time, role, fn))
    for actor, (t0, role, fn) in open_at.items():
        lanes[actor].append((t0, makespan, role, fn))
    return {a: lanes[a] for a in sorted(lanes)}


_SPE_UTIL_RE = re.compile(r'^spe\.utilization\{spe="(?P<spe>[^"]+)"\}$')


def reference_spe_utilizations(tracer, registry, makespan):
    out: Dict[str, float] = {}
    if registry is not None:
        for name in registry.names():
            m = _SPE_UTIL_RE.match(name)
            if m:
                out[m.group("spe")] = float(registry.get(name).value)
    if out or tracer is None or makespan <= 0:
        return out
    busy: Dict[str, float] = {}
    open_at: Dict[str, float] = {}
    for r in tracer.records:
        if r.category != "spe":
            continue
        if r.event == "task_start":
            open_at.setdefault(r.actor, r.time)
        elif r.event == "task_end" and r.actor in open_at:
            busy[r.actor] = busy.get(r.actor, 0.0) + r.time - open_at.pop(r.actor)
    for actor, since in open_at.items():
        busy[actor] = busy.get(actor, 0.0) + makespan - since
    return {a: b / makespan for a, b in busy.items()}


def reference_u_series(tracer):
    return [
        (r.time, float(r.get("u", 0)), bool(r.get("active")))
        for r in tracer.filter(category="sched", event="decision")
    ]


def reference_decisions(tracer):
    decisions = tracer.filter(category="sched", event="decision")
    return ([bool(d.get("active")) for d in decisions],
            [float(d.get("u", 0)) for d in decisions])


def reference_adaptation_series(tracer):
    series: Dict[str, List[Tuple[int, float, float]]] = {}
    for r in tracer.filter(event="llp_invoke"):
        schedule = r.get("schedule", "static")
        suffix = "" if schedule == "static" else f", {schedule}"
        key = f"{r.get('function')} (k={r.get('k')}{suffix})"
        seq = series.setdefault(key, [])
        seq.append((
            len(seq),
            float(r.get("master_fraction", 0.0)),
            float(r.get("join_idle_us", 0.0)),
        ))
    return series


def reference_llp_schedule_note(tracer):
    per_schedule: Dict[str, Tuple[int, int]] = {}
    for r in tracer.filter(event="llp_invoke"):
        name = str(r.get("schedule", "static"))
        chunks = sum(r.get("chunk_counts", ()) or ())
        invocations, total_chunks = per_schedule.get(name, (0, 0))
        per_schedule[name] = (invocations + 1, total_chunks + chunks)
    if not per_schedule:
        return ""
    parts = ", ".join(
        f"{name}: {inv} invocations, {chunks} chunks assigned"
        for name, (inv, chunks) in sorted(per_schedule.items())
    )
    return (f'<p class="chart-note">Loop schedule &#8212; '
            f'{html.escape(parts, quote=True)}</p>')


def reference_imbalance_series(tracer):
    series: Dict[Tuple[str, int], List[float]] = {}
    for r in tracer.filter(event="llp_invoke"):
        key = (str(r.get("function")), int(r.get("k", 0)))
        series.setdefault(key, []).append(float(r.get("join_idle_us", 0.0)))
    return series


def reference_fault_events(tracer):
    return [
        r for r in tracer.records
        if r.category == "fault"
        or (r.category == "spe" and r.event == "task_abort")
        or (r.category == "serve" and r.event in FORMER_SERVE_FAULT_EVENTS)
    ]


def reference_ops_events(tracer):
    return [r for r in tracer.records
            if r.category == "serve" and r.event in SERVE_OPS_EVENTS]


def reference_workflow_events(tracer):
    return [r for r in tracer.records
            if r.category == "serve" and (r.event in WORKFLOW_EVENTS
                                          or r.event == "workflow-cancel")]


def reference_has_serve(tracer):
    return any(r.category == "serve" for r in tracer.records)


def as_records(rows) -> List[Tuple[Any, ...]]:
    return [(t, c, a, e, tuple(p.items())) for t, c, a, e, p in rows]


def record_tuples(records) -> List[Tuple[Any, ...]]:
    return [(r.time, r.category, r.actor, r.event, r.data) for r in records]


# -- run shapes -----------------------------------------------------------------

def _observed(spec, faults=None, metrics=True):
    tracer = Tracer()
    registry = MetricsRegistry() if metrics else None
    run_experiment(spec, Workload(bootstraps=3, tasks_per_bootstrap=150),
                   tracer=tracer, metrics=registry, faults=faults)
    return tracer, registry


def fig8_mgps():
    return _observed(mgps())


# SPE 5 dies mid-task: its task is aborted and stays open to the end.
SPE_FAULTS = FaultPlan(
    seed=3, offload_fail_rate=0.05,
    spe_kills=(SPEKill(spe=2, time=2e-4), SPEKill(spe=5, time=4e-4)),
)


def offline_faults():
    return _observed(mgps(), faults=SPE_FAULTS)


def serve_kill_resilient():
    tracer, registry = Tracer(), MetricsRegistry()
    run_service(ServeConfig(
        tenants=default_tenants(), seed=0,
        faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=900.0),)),
        resilience=ResilienceConfig(hedging=True, breaker=True),
    ), tracer=tracer, metrics=registry)
    return tracer, registry


def bootstopped_dag():
    tracer, registry = Tracer(), MetricsRegistry()
    run_dag(DagConfig(workflow=raxml_workflow(replicates=20), seed=3,
                      bootstop=BootstopConfig(min_replicates=10,
                                              check_every=2)),
            tracer=tracer, metrics=registry)
    return tracer, registry


def chaos_plan():
    config = ChaosConfig(plans=1, duration_s=1200.0)
    plan = random_fleet_fault_plan(seed=1, n_blades=config.blades,
                                   horizon_s=config.duration_s)
    tracer, registry = Tracer(), MetricsRegistry()
    run_service(chaos_serve_config(config, plan), tracer=tracer,
                metrics=registry)
    return tracer, registry


def jsonl_round_trip():
    tracer, registry = offline_faults()
    return Tracer.from_jsonl(tracer.to_jsonl()), registry


def tracer_only():
    return _observed(mgps(), faults=SPE_FAULTS, metrics=False)


# What each shape must actually exercise, so the comparison is not vacuous.
EXERCISES = {
    fig8_mgps: ("decision", "llp_invoke", "task_start"),
    offline_faults: ("spe_kill", "task_abort", "offload_fail", "llp_invoke"),
    serve_kill_resilient: ("blade-kill", "breaker"),
    bootstopped_dag: ("bootstop-converged", "workflow-cancel"),
    chaos_plan: ("breaker",),
    jsonl_round_trip: ("spe_kill", "task_abort"),
    tracer_only: ("spe_kill", "task_abort", "decision"),
}
SHAPES = list(EXERCISES)


@pytest.fixture(scope="module", params=SHAPES, ids=lambda f: f.__name__)
def shape(request):
    return request.param, *request.param()


def test_each_shape_exercises_its_feature(shape):
    make, tracer, registry = shape
    events = {r.event for r in tracer.records}
    for ev in EXERCISES[make]:
        assert ev in events, (make.__name__, ev)
    assert (registry is None) == (make is tracer_only)


def test_fold_matches_the_report_scans(shape):
    _, tracer, registry = shape
    run = read_run(tracer, registry)
    assert run.makespan == reference_makespan(tracer, registry)
    assert {a: [(t.start, t.end, t.role, t.function) for t in lane]
            for a, lane in run.lanes.items()} == \
        reference_spe_lanes(tracer, registry, run.makespan)
    assert list(run.lanes) == list(
        reference_spe_lanes(tracer, registry, run.makespan))
    assert [tuple(d) for d in run.decisions] == reference_u_series(tracer)
    assert _adaptation_series(run.loops) == reference_adaptation_series(tracer)
    assert list(_adaptation_series(run.loops)) == list(
        reference_adaptation_series(tracer))
    assert _llp_schedule_note(run.loops) == \
        reference_llp_schedule_note(tracer)
    assert as_records(run.fault_events) == \
        record_tuples(reference_fault_events(tracer))
    assert as_records(run.ops_events) == \
        record_tuples(reference_ops_events(tracer))
    assert as_records(run.workflow_events) == \
        record_tuples(reference_workflow_events(tracer))
    assert run.has_serve == reference_has_serve(tracer)


def test_fold_matches_the_monitor_scans(shape):
    _, tracer, registry = shape
    run = read_run(tracer, registry)
    assert run.n_spes == reference_n_spes(tracer, registry)
    assert run.spe_utilization == reference_spe_utilizations(
        tracer, registry, reference_makespan(tracer, registry))
    assert ([d.active for d in run.decisions],
            [d.u for d in run.decisions]) == reference_decisions(tracer)
    series: Dict[Tuple[str, int], List[float]] = {}
    for inv in run.loops:
        series.setdefault((inv.function, int(inv.k)), []).append(
            inv.join_idle_us)
    assert series == reference_imbalance_series(tracer)


def test_spans_are_the_folds_closed_tasks(shape):
    _, tracer, registry = shape
    run = read_run(tracer, registry)
    spans = extract_spans(tracer)
    assert [(s.spe, s.start, s.end, s.proc, s.function, s.workers)
            for s in spans] == \
        [(t.spe, t.start, t.end, t.proc, t.function, t.workers)
         for t in run.tasks]
    closed = sum(1 for r in tracer.records if r.event == "task_end")
    assert len(spans) == closed


def test_tracer_only_run_reads_utilization_from_the_trace():
    tracer, _ = tracer_only()
    run = read_run(tracer, None)
    assert run.spe_utilization
    assert set(run.spe_utilization) == set(run.lanes)
    # The killed SPE's aborted task stays open and runs to the end.
    assert any(lane[-1].end == run.makespan for lane in run.lanes.values())
    assert analyze_run(tracer, None) == []


# -- malformed traces -----------------------------------------------------------

def _nested():
    tracer = Tracer()
    tracer.emit(0.0, "spe", "spe0", "task_start", proc=0, function="f")
    tracer.emit(0.1, "spe", "spe0", "task_start", proc=0, function="f")
    return tracer


def _unmatched_end():
    tracer = Tracer()
    tracer.emit(0.0, "spe", "spe0", "task_end", proc=0, function="f")
    return tracer


@pytest.mark.parametrize("make", [_nested, _unmatched_end])
@pytest.mark.parametrize("reader", [
    extract_spans,
    lambda t: read_run(t, None),
    lambda t: render_report(t, None),
    lambda t: analyze_run(t, None),
], ids=["extract_spans", "read_run", "render_report", "analyze_run"])
def test_every_reader_rejects_a_malformed_pairing(make, reader):
    with pytest.raises(ValueError):
        reader(make())


def test_open_task_runs_to_the_makespan_but_yields_no_span():
    tracer = Tracer()
    tracer.emit(0.0, "spe", "spe0", "task_start", proc=0, function="f")
    tracer.emit(0.5, "spe", "spe0", "task_abort", proc=0, function="f")
    tracer.emit(2.0, "sched", "mgps", "decision", u=3, active=False)
    run = read_run(tracer, None)
    assert extract_spans(tracer) == []
    assert [(t.start, t.end) for t in run.lanes["spe0"]] == [(0.0, 2.0)]
    assert run.spe_utilization == {"spe0": 1.0}
    assert run.n_spes == 1


# -- registry reader, event sets and truncation ---------------------------------

def test_registry_value_reads_none_as_empty():
    assert registry_value(None, "run.makespan_s") == 0.0
    assert registry_value(None, "run.makespan_s", default=-1.0) == -1.0
    reg = MetricsRegistry()
    reg.counter("runtime.offloads").inc(3)
    assert registry_value(reg, "runtime.offloads") == 3.0
    assert registry_value(reg, "nope", default=2.5) == 2.5


def test_serve_fault_events_are_the_fleet_faults_of_both_tables():
    assert SERVE_FAULT_EVENTS == FORMER_SERVE_FAULT_EVENTS
    assert SERVE_FAULT_EVENTS <= FAULT_EVENT_LABELS.keys()
    assert SERVE_FAULT_EVENTS <= SERVE_OPS_EVENTS.keys()


def test_event_tables_count_the_rows_they_cut():
    tracer = Tracer()
    for i in range(203):
        tracer.emit(float(i), "serve", "fleet", "blade-kill", blade=i)
    for i in range(205):
        tracer.emit(300.0 + i, "serve", "workflow", "stage-ready",
                    stage=i)
    registry = MetricsRegistry()
    registry.counter("serve.arrivals").inc(1)
    registry.counter("serve.dag.workflows").inc(1)
    doc = render_report(tracer, registry)
    serving = doc[doc.index('id="serving"'):doc.index('id="workflows"')]
    workflows = doc[doc.index('id="workflows"'):doc.index('id="perf"')]
    faults = doc[doc.index('id="faults"'):]
    assert "3 further serving-ops events omitted." in serving
    assert "5 further workflow events omitted." in workflows
    assert "3 further fault events omitted." in faults
    for lane in (serving, workflows, faults):
        assert lane.count("<tr><td") == 200
