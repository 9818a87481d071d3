"""The single-pass causal fold against a slow record-based reference.

:func:`reference_build_job_trees` is the serve job-tree fold written the
plain way: it walks :class:`~repro.sim.trace.TraceRecord` views and
scans each payload with ``rec.get``.  :func:`repro.obs.causal
.build_job_trees` folds the tracer's raw rows in one pass instead; both
must return the same trees (job ids, status, phase names, starts, ends
and attrs) and the same aggregate breakdown on every serve shape that
produces unusual phases — blade kills, flaps and stragglers, hedged
dispatch, batched units, total fleet loss and a bootstopped workflow —
whether the source is a tracer, its record list or a JSONL round-trip.
"""

from typing import Any, Dict, List, Tuple

import pytest

from repro.obs.attribution import aggregate_breakdown
from repro.obs.causal import (
    JobTree,
    PHASE_ORDER,
    SpanNode,
    build_job_trees,
)
from repro.serve import (
    BladeFlap,
    BladeKill,
    BladeSlow,
    BootstopConfig,
    DagConfig,
    FleetFaultPlan,
    JobTemplate,
    ResilienceConfig,
    ServeConfig,
    TenantSpec,
    raxml_workflow,
    run_dag,
    run_service,
)
from repro.sim.trace import Tracer

_PHASE_FROM = {
    "submit": "admission",
    "dispatch": "blade-queue",
    "unit-start": "dispatch-overhead",
    "start": "service",
    "failover": "requeue",
}
_TERMINAL = ("finish", "lost")


def reference_build_job_trees(source) -> Dict[int, JobTree]:
    """Record-at-a-time fold: one ``note`` per boundary, ``rec.get`` reads."""
    records = getattr(source, "records", source)
    timelines: Dict[int, List[Tuple[float, str, Dict[str, Any]]]] = {}
    meta: Dict[int, Dict[str, Any]] = {}

    def note(job_id, time, kind, **attrs):
        timelines.setdefault(job_id, []).append((time, kind, attrs))

    for rec in records:
        if rec.category != "serve":
            continue
        ev = rec.event
        if ev == "admit":
            jid = rec.get("job")
            meta[jid] = {
                "tenant": rec.get("tenant", ""),
                "template": rec.get("template", ""),
                "variant": rec.get("variant", 0),
            }
            note(jid, rec.time, "submit")
        elif ev == "dispatch":
            for jid in rec.get("jobs", ()):
                note(jid, rec.time, "dispatch",
                     blade=rec.get("blade"), unit=rec.get("unit"))
        elif ev == "unit-start":
            for jid in rec.get("jobs", ()):
                note(jid, rec.time, "unit-start",
                     blade=rec.actor, unit=rec.get("unit"))
        elif ev == "start":
            note(rec.get("job"), rec.time, "start", blade=rec.actor)
        elif ev == "finish":
            note(rec.get("job"), rec.time, "finish", blade=rec.actor)
        elif ev == "failover":
            for jid in rec.get("jobs", ()):
                note(jid, rec.time, "failover", blade=rec.actor)
        elif ev == "lost":
            note(rec.get("job"), rec.time, "lost")

    trees: Dict[int, JobTree] = {}
    for jid, events in timelines.items():
        if not events or events[0][1] != "submit":
            continue
        submit = events[0][0]
        info = meta.get(jid, {})
        phases: List[SpanNode] = []
        prev_kind, prev_t = "submit", submit
        prev_attrs: Dict[str, Any] = {}
        status = "in-flight"
        end = submit
        for time, kind, attrs in events[1:]:
            name = _PHASE_FROM.get(prev_kind)
            if name is None:
                break
            if kind == "failover" and name != "requeue":
                name += "-aborted"
            phases.append(SpanNode(name, prev_t, time, dict(prev_attrs)))
            prev_kind, prev_t, prev_attrs = kind, time, attrs
            end = time
            if kind in _TERMINAL:
                status = "completed" if kind == "finish" else "lost"
                break
        if status == "in-flight" and prev_kind not in _TERMINAL:
            end = prev_t
        root = SpanNode("job", submit, end, {"job": jid}, phases)
        trees[jid] = JobTree(
            job_id=jid,
            tenant=info.get("tenant", ""),
            template=info.get("template", ""),
            variant=info.get("variant", 0),
            status=status,
            root=root,
        )
    return trees


def former_phase_durations(tree: JobTree) -> Dict[str, float]:
    """The former accounting: canonical phases summed per name, in
    :data:`PHASE_ORDER`; of any other name only the first phase kept."""
    out: Dict[str, float] = {}
    for name in PHASE_ORDER:
        for p in tree.phases:
            if p.name == name:
                out[name] = out.get(name, 0.0) + p.duration
    for p in tree.phases:
        if p.name not in out:
            out[p.name] = p.duration
    return out


def shape(trees: Dict[int, JobTree]):
    """Everything a tree says, as plain comparable values."""
    return {
        jid: (t.job_id, t.tenant, t.template, t.variant, t.status,
              t.root.start, t.root.end, t.root.attrs,
              [(p.name, p.start, p.end, p.attrs, p.children)
               for p in t.phases])
        for jid, t in trees.items()
    }


# -- serve shapes ---------------------------------------------------------------

SMALL = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60, variants=2)


def _serve(**overrides) -> Tracer:
    base = dict(
        tenants=(TenantSpec("alpha", SMALL, arrival="poisson",
                            arrival_rate=0.1, priority=1, deadline_s=900.0),
                 TenantSpec("beta", SMALL, arrival="bursty", burst_size=3,
                            burst_interval_s=300.0)),
        duration_s=900.0, seed=9, min_blades=3, max_blades=3,
        dispatch="least-loaded",
    )
    base.update(overrides)
    tracer = Tracer()
    run_service(ServeConfig(**base), tracer=tracer)
    return tracer


def fleet_faults():
    return _serve(faults=FleetFaultPlan(
        kills=(BladeKill(blade=0, at=400.0),),
        slows=(BladeSlow(blade=1, at=100.0, factor=3.0),),
        flaps=(BladeFlap(blade=2, at=200.0, down_s=60.0),),
    ))


def hedged():
    return _serve(
        faults=FleetFaultPlan(slows=(BladeSlow(blade=0, at=100.0,
                                               factor=6.0),)),
        resilience=ResilienceConfig(hedging=True, breaker=True),
    )


def batched():
    return _serve(batch_max=4, min_blades=1, max_blades=1)


def lost():
    return _serve(min_blades=1, max_blades=1,
                  faults=FleetFaultPlan(kills=(BladeKill(blade=0, at=1.0),)))


def bootstopped_dag():
    tracer = Tracer()
    run_dag(DagConfig(workflow=raxml_workflow(replicates=20), seed=3,
                      bootstop=BootstopConfig(min_replicates=10,
                                              check_every=2)),
            tracer=tracer)
    return tracer


# What each shape must actually exercise, so the comparison is not vacuous.
EXERCISES = {
    fleet_faults: ("failover", "blade-kill", "blade-flap", "blade-slow"),
    hedged: ("hedge", "hedge-win"),
    batched: (),
    lost: ("lost",),
    bootstopped_dag: ("workflow-start", "bootstop-converged"),
}

SHAPES = list(EXERCISES)
SOURCES = {
    "tracer": lambda t: t,
    "records": lambda t: list(t.records),
    "jsonl": lambda t: Tracer.from_jsonl(t.to_jsonl()),
}


@pytest.fixture(scope="module", params=SHAPES, ids=lambda f: f.__name__)
def traced(request):
    return request.param, request.param()


def test_each_shape_exercises_its_feature(traced):
    make, tracer = traced
    events = {r.event for r in tracer.records if r.category == "serve"}
    for ev in EXERCISES[make]:
        assert ev in events, (make.__name__, ev)
    if make is batched:
        assert any(len(r.get("jobs", ())) > 1 for r in tracer.records
                   if r.event == "dispatch")
    if make is lost:
        assert any(t.status == "lost"
                   for t in build_job_trees(tracer).values())


@pytest.mark.parametrize("source", list(SOURCES))
def test_fold_matches_reference(traced, source):
    _, tracer = traced
    fast = build_job_trees(SOURCES[source](tracer))
    slow = reference_build_job_trees(SOURCES[source](tracer))
    assert fast
    assert list(fast) == list(slow)
    assert shape(fast) == shape(slow)
    assert aggregate_breakdown(fast) == aggregate_breakdown(slow)


def test_serve_phases_are_canonical_so_durations_are_unchanged(traced):
    _, tracer = traced
    for tree in build_job_trees(tracer).values():
        assert {p.name for p in tree.phases} <= set(PHASE_ORDER)
        assert tree.phase_durations() == former_phase_durations(tree)
