"""Tests for the observability subsystem (spans, metrics, exporters).

Covers the PR's acceptance surface: span nesting and the cheap disabled
path, histogram percentiles, the Chrome trace-event schema, Tracer
payload backcompat and JSONL round-trips, registry consumption by the
analysis layer, and — most importantly — that observability never
perturbs scheduler decisions.
"""

import json

import pytest

from repro.analysis.metrics import (
    llp_chunk_profile,
    offload_latency_percentiles,
    registry_value,
    scheduler_summary,
)
from repro.cell.params import BladeParams
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.obs import (
    NULL_REGISTRY,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    chrome_trace_events,
    labeled,
)
from repro.sim.trace import TraceRecord, Tracer
from repro.workloads.traces import Workload


# -- metrics registry ---------------------------------------------------------

class TestMetrics:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c.snapshot() == {"type": "counter", "value": 4}

    def test_gauge_tracks_last_value_and_updates(self):
        g = Gauge("y")
        g.set(1.5)
        g.set(-2.0)
        assert g.value == -2.0
        assert g.snapshot()["updates"] == 2

    def test_histogram_percentiles_interpolate(self):
        h = Histogram("h", buckets=(1, 2, 4, 8, 16))
        for v in range(1, 11):
            h.observe(v)
        assert h.count == 10
        assert h.min == 1 and h.max == 10
        # Percentiles are interpolated within buckets but clamped to the
        # observed range.
        assert 4 <= h.percentile(50) <= 7
        assert h.percentile(0) == 1
        assert h.percentile(100) == 10

    def test_histogram_overflow_bucket(self):
        h = Histogram("h", buckets=(1, 2))
        h.observe(1000.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["max"] == 1000.0

    def test_registry_get_or_create_and_type_check(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        assert reg.counter("a.b") is c
        with pytest.raises(TypeError):
            reg.gauge("a.b")

    def test_registry_snapshot_sorted_and_json(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.gauge("a").set(0.1)
        assert reg.names() == ["a", "z"]
        snap = json.loads(reg.to_json())
        assert snap["z"]["value"] == 1
        assert "metrics snapshot (2 instruments)" in reg.render()

    def test_null_registry_is_inert(self):
        n = NULL_REGISTRY
        n.counter("x").inc()
        n.gauge("y").set(3)
        n.histogram("z").observe(1.0)
        assert n.snapshot() == {}
        assert n.counter("x") is n.histogram("z")


# -- spans --------------------------------------------------------------------

class TestSpans:
    def test_span_nesting_depths(self):
        tracer = Tracer()
        t = [0.0]
        spans = SpanRecorder(tracer, lambda: t[0])
        with spans.span("proc", "mpi0", "outer"):
            t[0] = 1.0
            with spans.span("proc", "mpi0", "inner") as sp:
                sp.set(k=42)
                t[0] = 2.0
            t[0] = 3.0
        events = [(r.event, r.get("name"), r.get("depth"))
                  for r in tracer.records]
        assert events == [
            ("span_begin", "outer", 0),
            ("span_begin", "inner", 1),
            ("span_end", "inner", 1),
            ("span_end", "outer", 0),
        ]
        assert tracer.records[2].get("k") == 42

    def test_span_records_error_attribute(self):
        tracer = Tracer()
        spans = SpanRecorder(tracer, lambda: 0.0)
        with pytest.raises(ValueError):
            with spans.span("proc", "a", "boom"):
                raise ValueError("x")
        assert tracer.records[-1].get("error") == "ValueError"

    def test_disabled_path_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        spans = SpanRecorder(tracer, lambda: 0.0)
        sp = spans.span("proc", "a", "x")
        assert sp is NULL_SPAN
        assert spans.span("proc", "b", "y") is NULL_SPAN  # shared singleton
        with sp as s:
            s.set(anything=1)
        assert tracer.records == []

    def test_clock_object_with_now(self):
        class Env:
            now = 7.5

        tracer = Tracer()
        spans = SpanRecorder(tracer, Env())
        with spans.span("c", "a", "n"):
            pass
        assert tracer.records[0].time == 7.5


# -- tracer payload conventions ----------------------------------------------

class TestTracerPayloads:
    def test_emit_kwargs_backcompat(self):
        tracer = Tracer()
        tracer.emit(1.0, "c", "a", "e", x=1, y=2)
        assert tracer.records[0].data == (("x", 1), ("y", 2))

    def test_record_stays_hashable(self):
        tracer = Tracer()
        tracer.emit(1.0, "c", "a", "e", x=(1, 2))
        assert {tracer.records[0]}  # frozen dataclass, tuple payload

    def test_jsonl_round_trip_exact(self):
        tracer = Tracer()
        tracer.emit(0.5, "spe", "spe0", "task_start", function="newview")
        tracer.emit(1.5, "spe", "spe0", "task_end",
                    workers=("spe1", "spe2"), n=3)
        text = tracer.to_jsonl()
        assert len(text.splitlines()) == 2
        back = Tracer.from_jsonl(text)
        assert back.records == tracer.records
        # Idempotent: serialize -> parse -> serialize is stable.
        assert back.to_jsonl() == text

    def test_jsonl_round_trip_on_real_run(self):
        tracer = Tracer()
        wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
        run_experiment(mgps(), wl, tracer=tracer)
        assert tracer.records
        back = Tracer.from_jsonl(tracer.to_jsonl())
        assert back.records == tracer.records


# -- exporters ----------------------------------------------------------------

class TestChromeExport:
    def test_schema_and_pairing(self):
        tracer = Tracer()
        wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
        run_experiment(mgps(), wl, tracer=tracer)
        doc = chrome_trace(tracer)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        json.dumps(doc)  # everything serializable
        per_tid = {}
        for e in events:
            assert {"ph", "pid", "tid", "name"} <= set(e)
            if e["ph"] in "BE":
                key = (e["pid"], e["tid"])
                per_tid[key] = per_tid.get(key, 0) + (
                    1 if e["ph"] == "B" else -1
                )
                assert per_tid[key] >= 0
        assert all(v == 0 for v in per_tid.values())

    def test_timestamps_in_microseconds(self):
        tracer = Tracer()
        tracer.emit(0.25, "spe", "spe0", "task_start", function="f")
        tracer.emit(0.50, "spe", "spe0", "task_end", function="f")
        events = [e for e in chrome_trace_events(tracer) if e["ph"] != "M"]
        assert events[0]["ts"] == 250000.0
        assert events[1]["ts"] == 500000.0

    def test_multiple_runs_get_distinct_pids(self):
        t1, t2 = Tracer(), Tracer()
        for t in (t1, t2):
            t.emit(0.0, "spe", "spe0", "task_start", function="f")
            t.emit(1.0, "spe", "spe0", "task_end", function="f")
        events = chrome_trace_events({"edtlp": t1, "mgps": t2})
        pids = {e["pid"] for e in events}
        assert len(pids) == 2
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"edtlp", "mgps"}

    def test_actor_tid_assignment_is_sorted(self):
        tracer = Tracer()
        for actor in ("spe3", "spe1", "spe2"):
            tracer.emit(0.0, "spe", actor, "task_start", function="f")
            tracer.emit(1.0, "spe", actor, "task_end", function="f")
        meta = {e["args"]["name"]: e["tid"]
                for e in chrome_trace_events(tracer)
                if e["ph"] == "M" and e["name"] == "thread_name"}
        tids = [meta[k] for k in sorted(meta)]
        assert tids == sorted(tids)


# -- observability must not perturb the simulation ---------------------------

class TestNonPerturbation:
    def test_fig8_mgps_decisions_identical_on_off(self):
        wl = Workload(bootstraps=3, tasks_per_bootstrap=150, seed=0)
        blade = BladeParams()
        plain = run_experiment(mgps(), wl, blade=blade, seed=0)
        traced = run_experiment(
            mgps(), wl, blade=blade, seed=0,
            tracer=Tracer(enabled=True), metrics=MetricsRegistry(),
        )
        assert traced.makespan == plain.makespan
        assert traced.raw_makespan == plain.raw_makespan
        assert traced.offloads == plain.offloads
        assert traced.llp_invocations == plain.llp_invocations
        assert traced.llp_mode_switches == plain.llp_mode_switches
        assert traced.ppe_context_switches == plain.ppe_context_switches
        assert traced.per_spe_busy == plain.per_spe_busy

    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
        run_experiment(mgps(), wl, tracer=tracer)
        assert tracer.records == []


# -- registry consumption by the analysis layer ------------------------------

class TestRegistryConsumers:
    @pytest.fixture(scope="class")
    def fig8_registry(self):
        metrics = MetricsRegistry()
        wl = Workload(bootstraps=3, tasks_per_bootstrap=150, seed=0)
        result = run_experiment(mgps(), wl, metrics=metrics, seed=0)
        return metrics, result

    def test_summary_matches_result(self, fig8_registry):
        metrics, result = fig8_registry
        s = scheduler_summary(metrics)
        assert s["makespan_s"] == pytest.approx(result.makespan)
        assert s["offloads"] == result.offloads
        assert s["llp_invocations"] == result.llp_invocations
        assert s["ppe_context_switches"] == result.ppe_context_switches
        assert s["spe_utilization"] == pytest.approx(
            result.spe_utilization, abs=1e-9
        )

    def test_mgps_window_metrics_present(self, fig8_registry):
        metrics, _ = fig8_registry
        assert registry_value(metrics, "mgps.decisions") > 0
        u = registry_value(metrics, "mgps.window_utilization")
        assert 0.0 <= u <= 1.0
        assert metrics.get("mgps.u_sample").count > 0

    def test_granularity_outcomes_counted(self, fig8_registry):
        metrics, result = fig8_registry
        s = scheduler_summary(metrics)
        assert s["granularity_accept"] + s["granularity_reject"] > 0
        assert s["granularity_accept"] == result.offloads

    def test_llp_chunk_profile(self, fig8_registry):
        metrics, _ = fig8_registry
        prof = llp_chunk_profile(metrics)
        assert prof["count"] > 0
        assert 0 < prof["p50"] <= prof["max"]

    def test_offload_latency_percentiles_ordered(self, fig8_registry):
        metrics, _ = fig8_registry
        p = offload_latency_percentiles(metrics)
        assert 0 < p["p50"] <= p["p90"] <= p["p99"]

    def test_empty_registry_reads_defaults(self):
        reg = MetricsRegistry()
        assert registry_value(reg, "nope", default=-1.0) == -1.0
        assert llp_chunk_profile(reg)["count"] == 0
        assert offload_latency_percentiles(reg)["p99"] == 0.0


# -- labeled names ------------------------------------------------------------

class TestMergeAndLabels:
    def test_labeled_formats_sorted_prometheus_style(self):
        assert labeled("spe.utilization", spe="cell0.spe3") == \
            'spe.utilization{spe="cell0.spe3"}'
        # Labels serialize in sorted key order regardless of kwarg order,
        # values always quoted (Prometheus exposition style).
        assert labeled("m", b=2, a="x") == 'm{a="x",b="2"}'
        assert labeled("m") == "m"


# -- exporter edge cases ------------------------------------------------------

class TestExporterEdgeCases:
    def test_empty_trace_exports_metadata_only(self):
        doc = chrome_trace(Tracer())
        assert doc["traceEvents"] == [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": "repro"}},
        ]
        json.dumps(doc)  # and it serializes

    def test_unterminated_spans_get_synthetic_closers(self):
        tracer = Tracer()
        tracer.emit(0.0, "spe", "spe0", "task_start", function="outer")
        tracer.emit(1.0, "spe", "spe0", "task_start", function="inner")
        tracer.emit(2.0, "spe", "spe0", "task_end")  # closes inner only
        events = chrome_trace_events(tracer)
        closers = [e for e in events if e.get("cat") == "incomplete"]
        assert len(closers) == 1
        assert closers[0]["name"] == "outer"
        assert closers[0]["ph"] == "E"
        assert closers[0]["ts"] == 2.0 * 1e6
        assert closers[0]["args"] == {"unterminated": True}
        # B/E events now pair up: equal counts per thread.
        n_b = sum(1 for e in events if e["ph"] == "B")
        n_e = sum(1 for e in events if e["ph"] == "E")
        assert n_b == n_e

    def test_stray_end_event_does_not_crash(self):
        tracer = Tracer()
        tracer.emit(0.5, "spe", "spe0", "task_end")  # end with no begin
        events = chrome_trace_events(tracer)
        assert any(e["ph"] == "E" for e in events)

    def test_mapping_payload_with_non_string_keys(self):
        # Keyword payloads always have string keys; a JSONL trace can
        # still carry others, and the exporters must survive them.
        tracer = Tracer.from_jsonl(json.dumps({
            "t": 0.0, "cat": "sched", "actor": "ppe", "event": "decision",
            "data": [[1, "one"], [2, "two"]],
        }))
        # Chrome export stringifies keys instead of crashing json.dump.
        events = chrome_trace_events(tracer)
        instant = [e for e in events if e["ph"] == "i"]
        assert instant[0]["args"] == {"1": "one", "2": "two"}
        json.dumps(chrome_trace(tracer), sort_keys=True)
        # JSONL keeps the original int keys through a round-trip
        # (pairs serialize as arrays, so key types survive).
        back = Tracer.from_jsonl(tracer.to_jsonl())
        assert back.records[0].get(1) == "one"
        assert back.records[0].data == tracer.records[0].data
