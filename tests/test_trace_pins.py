"""Trace and metrics output pinned byte for byte.

The tracer stores raw tuples and builds :class:`TraceRecord` views on
read; the serving layer binds its counters once.  Neither may change
what a run writes: the JSONL text of a fig8 run and of a traced
``serve_small`` run hash to fixed digests, the metrics snapshot of a
serving run that sheds load for both reasons is pinned, and the
record views behave like the plain record list they replace.
"""

import dataclasses
import hashlib
import json

from repro import (
    MetricsRegistry,
    ServeConfig,
    Tracer,
    Workload,
    default_tenants,
    mgps,
    run_experiment,
    run_service,
)
from repro.sim.engine import Environment
from repro.sim.trace import Sinks, TraceRecord

FIG8_JSONL_SHA256 = (
    "e24a722844afd94f15790d42abff020ba9af44176ccee66b96d7797ed465a9f7"
)
SERVE_SMALL_JSONL_SHA256 = (
    "af6cbedb1245e38f0698ae4af7b5013d79c93fcb19e46124ea3cf31c94f12775"
)
SHEDDING_SNAPSHOT_SHA256 = (
    "5165bbf3ec5d6348324dbf04412b28e0a37015423703797ecaceaf56129081d5"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fig8(tracer):
    wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
    return run_experiment(mgps(), wl, seed=0, tracer=tracer)


def _serve_small(tracer):
    cfg = ServeConfig(tenants=default_tenants(arrival_rate=0.05),
                      duration_s=1800.0, seed=0)
    return run_service(cfg, tracer=tracer)


def test_fig8_jsonl_is_pinned():
    tracer = Tracer()
    _fig8(tracer)
    assert _sha(tracer.to_jsonl()) == FIG8_JSONL_SHA256


def test_serve_small_jsonl_is_pinned():
    tracer = Tracer()
    _serve_small(tracer)
    assert _sha(tracer.to_jsonl()) == SERVE_SMALL_JSONL_SHA256


def _shedding_run():
    genomics, proteomics, bursty = default_tenants(arrival_rate=0.2)
    bursty = dataclasses.replace(bursty, burst_size=8, rate_limit=0.01,
                                 burst=2)
    cfg = ServeConfig(tenants=(genomics, proteomics, bursty),
                      duration_s=1800.0, seed=0, queue_capacity=4)
    metrics = MetricsRegistry()
    result = run_service(cfg, metrics=metrics)
    return result, metrics.snapshot()


def test_shedding_snapshot_is_pinned():
    result, snap = _shedding_run()
    reasons = {name.split('reason="')[1].split('"')[0]
               for name in snap if name.startswith("serve.rejected{")}
    assert reasons == {"queue-full", "rate-limit"}
    assert _sha(json.dumps(snap, sort_keys=True)) == SHEDDING_SNAPSHOT_SHA256
    labeled = sum(v["value"] for name, v in snap.items()
                  if name.startswith("serve.rejected{"))
    assert labeled == snap["serve.rejected"]["value"]
    assert labeled == result.summary["rejected"] > 0


def test_records_view_follows_a_run():
    tracer = Tracer()
    env = Environment(tracer=tracer)
    seen = []

    def proc():
        for i in range(3):
            tracer.emit(env.now, "c", f"a{i % 2}", "tick", i=i)
            yield env.timeout(1.0)
        seen.append(list(tracer.records))           # read mid-run
        for i in range(3, 5):
            tracer.emit(env.now, "c", f"a{i % 2}", "tock", i=i, at=env.now)
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    assert [r.get("i") for r in seen[0]] == [0, 1, 2]
    records = tracer.records
    assert [r.get("i") for r in records] == [0, 1, 2, 3, 4]
    assert records[:3] == seen[0]                  # views are stable
    assert records[3] == TraceRecord(3.0, "c", "a1", "tock",
                                     (("i", 3), ("at", 3.0)))
    assert [r.get("i") for r in tracer.filter(actor="a1")] == [1, 3]
    assert [r.get("i") for r in tracer.filter(event="tock")] == [3, 4]
    assert len(tracer.filter(category="c", actor="a0", event="tick")) == 2
    tracer.clear()
    assert tracer.records == [] and tracer.rows == []
    tracer.emit(9.0, "c", "a", "after", k=1)
    assert tracer.records == [TraceRecord(9.0, "c", "a", "after",
                                          (("k", 1),))]


def test_sinks_resolve_to_none_when_everything_is_off():
    assert Sinks.resolve() is None
    assert Sinks.resolve(Tracer(enabled=False)) is None
    assert Environment(tracer=Tracer(enabled=False)).sinks is None
    tracer, metrics = Tracer(), MetricsRegistry()
    sinks = Sinks.resolve(tracer, metrics)
    assert (sinks.tracer, sinks.metrics) == (tracer, metrics)
    overlay = Sinks.resolve(Tracer(enabled=False), base=sinks)
    assert overlay.tracer is None and overlay.metrics is metrics
    assert Sinks.resolve(base=sinks) is sinks


def test_disabled_tracer_and_no_tracer_run_alike():
    plain = _fig8(None)
    off = _fig8(Tracer(enabled=False))
    assert (off.makespan, off.result_digest, off.events_processed) == (
        plain.makespan, plain.result_digest, plain.events_processed)
