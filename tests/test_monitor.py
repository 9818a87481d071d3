"""Tests for the scheduler health monitor, report and benchmark gate CLI.

The acceptance surface of the monitoring PR: a healthy Figure-8 MGPS run
reports zero findings; deliberately misconfigured runs trip the right
detector; the threshold mini-language parses and rejects correctly;
``repro health`` exits non-zero on findings; ``repro report`` emits one
self-contained HTML file with the expected sections.
"""

import inspect
import pathlib
import re

import pytest

from repro.cli import main
from repro.core.llp import LLPConfig
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.obs import monitor as monitor_module
from repro.obs import (
    HealthFinding,
    HealthMonitor,
    MetricsRegistry,
    MonitorConfig,
    analyze_run,
    parse_threshold,
    render_findings,
    render_report,
    resolve_metric,
)
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload


def _observed_run(spec, bootstraps=3, tasks=150, seed=0):
    tracer, metrics = Tracer(enabled=True), MetricsRegistry()
    wl = Workload(bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed)
    result = run_experiment(spec, wl, tracer=tracer, metrics=metrics, seed=seed)
    return tracer, metrics, result


@pytest.fixture(scope="module")
def healthy_run():
    """A Figure-8-style MGPS run with default (sane) configuration."""
    return _observed_run(mgps())


@pytest.fixture(scope="module")
def saturated_run():
    """LLP trigger threshold forced to 0: U can never drop below it, so
    MGPS sits in pure task-level mode while the SPEs go underfed."""
    return _observed_run(mgps(llp_u_threshold=0))


# -- threshold mini-language --------------------------------------------------

class TestThresholdParser:
    @pytest.mark.parametrize("expr,metric,op,value", [
        ("spe_idle_ratio>0.25", "spe_idle_ratio", ">", 0.25),
        ("makespan_s<=30", "makespan_s", "<=", 30.0),
        ("  runtime.offload_waits >= 1 ", "runtime.offload_waits", ">=", 1.0),
        ("mgps.u_estimate!=0", "mgps.u_estimate", "!=", 0.0),
        ("offloads==600", "offloads", "==", 600.0),
        ("llp.invocations<1e3", "llp.invocations", "<", 1000.0),
        ('spe.utilization{spe="cell0.spe0"}<0.1',
         'spe.utilization{spe="cell0.spe0"}', "<", 0.1),
    ])
    def test_parses(self, expr, metric, op, value):
        t = parse_threshold(expr)
        assert (t.metric, t.op, t.value) == (metric, op, value)

    @pytest.mark.parametrize("expr", [
        "", "just_a_name", ">0.5", "a>>1", "a > b", "1 > a", "a = 1",
    ])
    def test_rejects(self, expr):
        with pytest.raises(ValueError):
            parse_threshold(expr)

    def test_violated_semantics(self):
        t = parse_threshold("idle>0.25")
        assert t.violated(0.3) and not t.violated(0.25)
        assert str(t) == "idle>0.25"


class TestResolveMetric:
    def _inputs(self):
        reg = MetricsRegistry()
        reg.counter("runtime.offloads").inc(7)
        return {"spe_idle_ratio": 0.5}, reg

    def test_summary_wins_over_registry(self):
        summary, reg = self._inputs()
        assert resolve_metric("spe_idle_ratio", summary, reg) == 0.5
        assert resolve_metric("runtime.offloads", summary, reg) == 7.0

    def test_unknown_name_lists_known_metrics(self):
        summary, reg = self._inputs()
        with pytest.raises(ValueError) as exc:
            resolve_metric("no_such_metric", summary, reg)
        msg = str(exc.value)
        assert "no_such_metric" in msg
        # The error is actionable: it names every metric the caller
        # could have meant.
        assert "spe_idle_ratio" in msg
        assert "runtime.offloads" in msg


# -- end-to-end acceptance ----------------------------------------------------

class TestHealthVerdicts:
    def test_healthy_fig8_run_has_zero_findings(self, healthy_run):
        tracer, metrics, result = healthy_run
        assert result.llp_invocations > 0  # MGPS did engage LLP
        assert analyze_run(tracer, metrics) == []

    def test_disabled_llp_trigger_trips_saturation(self, saturated_run):
        tracer, metrics, result = saturated_run
        assert result.llp_invocations == 0  # the misconfiguration worked
        findings = analyze_run(tracer, metrics)
        assert "window-u-saturation" in [f.detector for f in findings]
        sat = next(f for f in findings
                   if f.detector == "window-u-saturation")
        assert sat.severity == "critical"
        assert sat.evidence["llp_invocations"] == 0
        assert sat.evidence["low_u_decisions"] > 0

    def test_frozen_unbalancing_trips_imbalance(self):
        # adaptive=False freezes the master fraction at an equal split;
        # with a deliberate head-start bias the join idle stays tens of
        # microseconds and never shrinks.
        spec = mgps(llp_config=LLPConfig(adaptive=False,
                                         head_start_bias=-0.3))
        tracer, metrics, _ = _observed_run(spec)
        findings = analyze_run(tracer, metrics)
        assert "llp-imbalance" in [f.detector for f in findings]


# -- synthetic detector inputs ------------------------------------------------

class TestSyntheticDetectors:
    def test_oscillation_on_alternating_decisions(self):
        tracer = Tracer()
        for i in range(12):
            tracer.emit(i * 0.1, "sched", "ppe", "decision",
                        u=4 if i % 2 else 5, active=bool(i % 2))
        findings = analyze_run(tracer, MetricsRegistry())
        oscillation = [f for f in findings if f.detector == "mgps-oscillation"]
        assert len(oscillation) == 1
        assert oscillation[0].evidence["toggles"] == 11

    def test_no_oscillation_on_stable_decisions(self):
        tracer = Tracer()
        for i in range(12):
            tracer.emit(i * 0.1, "sched", "ppe", "decision",
                        u=2, active=i > 2)  # one clean switch
        assert all(f.detector != "mgps-oscillation"
                   for f in analyze_run(tracer, MetricsRegistry()))

    def _starved_registry(self, waits):
        reg = MetricsRegistry()
        reg.gauge("run.raw_makespan_s").set(1.0)
        reg.gauge("run.n_spes").set(4)
        reg.counter("runtime.offload_waits").inc(waits)
        for i, util in enumerate((0.9, 0.85, 0.1, 0.05)):
            reg.gauge(f'spe.utilization{{spe="cell0.spe{i}"}}').set(util)
        return reg

    def test_starvation_needs_blocked_offloads(self):
        # Idle SPEs alone are slack, not starvation: without a blocked
        # off-load the detector stays quiet...
        assert analyze_run(None, self._starved_registry(waits=0)) == []
        # ...with one, the two mostly-idle SPEs are reported.
        findings = analyze_run(None, self._starved_registry(waits=3))
        starved = [f for f in findings if f.detector == "spe-starvation"]
        assert len(starved) == 1
        assert starved[0].severity == "critical"  # 95% idle > 75%
        assert set(starved[0].evidence["idle_ratio_by_spe"]) == {
            "cell0.spe2", "cell0.spe3",
        }

    def test_imbalance_on_growing_join_idle(self):
        tracer = Tracer()
        for i in range(12):
            tracer.emit(i * 0.1, "llp", "spe0", "llp_invoke",
                        function="logl", k=4, join_idle_us=5.0 + i,
                        master_fraction=0.25, chunks=4)
        findings = analyze_run(tracer, MetricsRegistry())
        imb = [f for f in findings if f.detector == "llp-imbalance"]
        assert len(imb) == 1
        assert imb[0].evidence["function"] == "logl"
        assert imb[0].evidence["k"] == 4

    def test_no_imbalance_when_shrinking_or_tiny(self):
        shrinking, tiny = Tracer(), Tracer()
        for i in range(12):
            shrinking.emit(i * 0.1, "llp", "spe0", "llp_invoke",
                           function="f", k=2, join_idle_us=20.0 / (i + 1))
            tiny.emit(i * 0.1, "llp", "spe0", "llp_invoke",
                      function="f", k=2, join_idle_us=0.5)
        for tracer in (shrinking, tiny):
            assert all(f.detector != "llp-imbalance"
                       for f in analyze_run(tracer, MetricsRegistry()))

    def test_churn_reads_flip_counters(self):
        reg = MetricsRegistry()
        reg.counter("granularity.flips.logl").inc(5)
        reg.counter("granularity.flips.newview").inc(1)  # below threshold
        findings = analyze_run(None, reg)
        churn = [f for f in findings if f.detector == "granularity-churn"]
        assert len(churn) == 1
        assert churn[0].evidence["flips_by_function"] == {"logl": 5.0}

    def test_config_overrides(self):
        reg = MetricsRegistry()
        reg.counter("granularity.flips.logl").inc(2)
        assert analyze_run(None, reg) == []
        strict = MonitorConfig(churn_flips=2)
        assert len(analyze_run(None, reg, config=strict)) == 1

    def _storm_registry(self, offloads, retries, fallbacks):
        reg = MetricsRegistry()
        reg.counter("runtime.offloads").inc(offloads)
        reg.counter("runtime.offload_retries").inc(retries)
        reg.counter("runtime.retry_fallbacks").inc(fallbacks)
        return reg

    def test_fault_storm_on_high_retry_ratio(self):
        findings = analyze_run(None, self._storm_registry(20, 8, 2))
        storm = [f for f in findings if f.detector == "fault-storm"]
        assert len(storm) == 1
        assert storm[0].severity == "warning"
        assert storm[0].evidence["offload_retries"] == 8.0

    def test_no_storm_below_ratio_or_volume(self):
        # Healthy ratio: 2 retries over 40 attempts.
        assert all(f.detector != "fault-storm"
                   for f in analyze_run(None, self._storm_registry(40, 2, 0)))
        # Too few events to judge: 2 of 4 failed but under min volume.
        assert all(f.detector != "fault-storm"
                   for f in analyze_run(None, self._storm_registry(4, 2, 0)))

    def _degraded_registry(self, kills, blacklists, live, n_spes=8):
        reg = MetricsRegistry()
        reg.gauge("run.n_spes").set(n_spes)
        reg.counter("faults.spe_kills").inc(kills)
        reg.counter("runtime.spe_blacklists").inc(blacklists)
        reg.gauge("run.live_spes").set(live)
        return reg

    def test_degraded_capacity_warns_on_lost_spes(self):
        findings = analyze_run(None, self._degraded_registry(2, 1, 5))
        deg = [f for f in findings if f.detector == "degraded-capacity"]
        assert len(deg) == 1
        assert deg[0].severity == "warning"
        assert deg[0].evidence["spe_kills"] == 2.0
        assert deg[0].evidence["live_spes"] == 5.0

    def test_degraded_capacity_critical_when_none_survive(self):
        findings = analyze_run(None, self._degraded_registry(8, 0, 0))
        deg = next(f for f in findings
                   if f.detector == "degraded-capacity")
        assert deg.severity == "critical"
        assert "no SPE survived" in deg.summary

    def test_quiet_without_capacity_loss(self):
        assert all(f.detector != "degraded-capacity"
                   for f in analyze_run(None, self._degraded_registry(0, 0, 8)))


# -- findings rendering -------------------------------------------------------

class TestFindingOutput:
    def test_render_ok(self):
        assert render_findings([]) == "health: OK (0 findings)"

    def test_render_itemizes(self):
        f = HealthFinding("spe-starvation", "warning", "2 SPEs idle",
                          {"offload_waits": 3.0})
        text = render_findings([f])
        assert "[warning] spe-starvation: 2 SPEs idle" in text
        assert "offload_waits = 3.0" in text

    def test_to_dict_round_trips_evidence(self):
        f = HealthFinding("d", "critical", "s", {"a": 1})
        assert f.to_dict() == {"detector": "d", "severity": "critical",
                               "summary": "s", "evidence": {"a": 1}}


# -- detector catalogue -------------------------------------------------------

def _emitted_detectors():
    """detector name -> the ``_detect_*`` method that emits it."""
    out = {}
    for attr in dir(HealthMonitor):
        if attr.startswith("_detect_"):
            source = inspect.getsource(getattr(HealthMonitor, attr))
            (name,) = set(re.findall(r'detector="([a-z-]+)"', source))
            out[name] = attr
    return out


class TestDetectorCatalogue:
    def test_each_detector_is_named_after_its_method(self):
        emitted = _emitted_detectors()
        assert len(emitted) == 11
        for name, attr in emitted.items():
            assert attr == "_detect_" + name.replace("-", "_")

    def test_module_docstring_lists_every_detector(self):
        doc = monitor_module.__doc__
        table = doc[doc.index("fires when"):doc.index("Findings are")]
        listed = re.findall(r"^([a-z][a-z-]+)  ", table, flags=re.M)
        assert sorted(listed) == sorted(_emitted_detectors())

    def test_architecture_catalogue_lists_every_detector(self):
        text = (pathlib.Path(__file__).parents[1] / "docs"
                / "ARCHITECTURE.md").read_text()
        section = text[text.index("### Detector catalogue"):]
        section = section[:section.index("\n### ", 1)]
        listed = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.M)
        assert sorted(listed) == sorted(_emitted_detectors())


# -- CLI: health / report -----------------------------------------------------

class TestHealthCLI:
    def test_healthy_scenario_exits_zero(self, capsys):
        assert main(["health", "fig8", "--bootstraps", "3",
                     "--tasks", "150"]) == 0
        out = capsys.readouterr().out
        assert "health: OK (0 findings)" in out

    def test_findings_exit_nonzero(self, capsys, monkeypatch):
        import repro.cli as cli
        monkeypatch.setitem(cli._SCENARIO_SPECS, "fig8",
                            (lambda: mgps(llp_u_threshold=0), 1))
        assert main(["health", "fig8", "--bootstraps", "3",
                     "--tasks", "150"]) == 1
        out = capsys.readouterr().out
        assert "window-u-saturation" in out

    def test_json_output(self, capsys, monkeypatch):
        import json

        import repro.cli as cli
        monkeypatch.setitem(cli._SCENARIO_SPECS, "fig8",
                            (lambda: mgps(llp_u_threshold=0), 1))
        assert main(["health", "fig8", "--bootstraps", "3",
                     "--tasks", "150", "--json"]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings[0]["detector"] == "window-u-saturation"
        assert findings[0]["severity"] == "critical"


class TestReportCLI:
    @pytest.fixture(scope="class")
    def report_html(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "report.html"
        code = main(["report", "fig8", "--bootstraps", "3",
                     "--tasks", "150", "--out", str(path)])
        assert code == 0
        return path.read_text()

    def test_section_anchors_present(self, report_html):
        for anchor in ('id="summary"', 'id="findings"', 'id="gantt"',
                       'id="u-series"', 'id="latency"',
                       'id="llp-adaptation"'):
            assert anchor in report_html

    def test_self_contained_no_external_urls(self, report_html):
        assert re.search(r"https?://", report_html) is None
        assert "<script" not in report_html  # inline CSS/SVG only
        assert "<style>" in report_html and "<svg" in report_html

    def test_healthy_report_shows_ok(self, report_html):
        assert "All detectors passed" in report_html

    def test_findings_render_in_report(self, saturated_run):
        tracer, metrics, _ = saturated_run
        html = render_report(tracer, metrics, analyze_run(tracer, metrics))
        assert "window-u-saturation" in html
        assert 'class="chip critical"' in html

    def test_missing_directory_is_an_error(self, capsys):
        assert main(["report", "fig8", "--out",
                     "/nonexistent/dir/report.html"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestStatsFailOn:
    def test_fail_on_violation_exits_one(self, capsys):
        code = main(["stats", "fig8", "--bootstraps", "3", "--tasks", "150",
                     "--fail-on", "spe_idle_ratio>0.0"])
        assert code == 1
        assert "FAIL spe_idle_ratio>0" in capsys.readouterr().err

    def test_fail_on_pass_exits_zero(self, capsys):
        code = main(["stats", "fig8", "--bootstraps", "3", "--tasks", "150",
                     "--fail-on", "spe_idle_ratio>0.99",
                     "--fail-on", "runtime.offload_waits>0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("ok   ") == 2

    def test_unknown_metric_is_usage_error(self, capsys):
        code = main(["stats", "fig8", "--bootstraps", "2", "--tasks", "60",
                     "--fail-on", "no_such_metric>1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown metric" in err
        # The message lists the valid names, so the typo is fixable
        # without reading the source.
        assert "known metrics" in err
        assert "spe_idle_ratio" in err
        assert "runtime.offloads" in err

    def test_bad_expression_is_usage_error(self, capsys):
        code = main(["stats", "fig8", "--fail-on", "not an expression"])
        assert code == 2
        assert "cannot parse threshold" in capsys.readouterr().err


# -- serving-layer coverage ---------------------------------------------------

def _serve_run(**overrides):
    from repro.serve import ServeConfig, TenantSpec, JobTemplate, run_service

    small = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60,
                        variants=2)
    cfg = ServeConfig(
        tenants=(TenantSpec("hose", small, arrival="poisson",
                            arrival_rate=overrides.pop("arrival_rate", 0.5)),),
        duration_s=600.0, seed=3, **overrides,
    )
    tracer, metrics = Tracer(enabled=True), MetricsRegistry()
    run_service(cfg, tracer=tracer, metrics=metrics)
    return tracer, metrics


class TestQueueSaturation:
    def _registry(self, arrivals, rejected):
        reg = MetricsRegistry()
        reg.counter("serve.arrivals").inc(arrivals)
        reg.counter("serve.rejected").inc(rejected)
        reg.gauge("serve.queue_capacity").set(64)
        return reg

    def test_inert_below_min_arrivals(self):
        # 10 of 19 shed is a 53% rejection ratio, but 19 offered jobs
        # is below the evidence floor — too small a sample to judge.
        assert analyze_run(None, self._registry(19, 10)) == []

    def test_inert_on_non_serving_run(self, healthy_run):
        tracer, metrics, _ = healthy_run
        assert all(f.detector != "queue-saturation"
                   for f in analyze_run(tracer, metrics))

    def test_shedding_is_critical(self):
        findings = analyze_run(None, self._registry(100, 20))
        sat = [f for f in findings if f.detector == "queue-saturation"]
        assert len(sat) == 1
        assert sat[0].severity == "critical"
        assert sat[0].evidence["rejection_ratio"] == 0.2

    def test_quiet_below_rejection_threshold(self):
        assert all(f.detector != "queue-saturation"
                   for f in analyze_run(None, self._registry(100, 5)))

    def test_fires_on_real_saturated_service(self):
        # End to end: a one-blade fleet with a tight queue under an
        # open-loop firehose must trip the detector with live metrics.
        tracer, metrics = _serve_run(min_blades=1, max_blades=1,
                                     queue_capacity=4)
        sat = [f for f in analyze_run(tracer, metrics)
               if f.detector == "queue-saturation"]
        assert len(sat) == 1
        assert sat[0].severity == "critical"
        assert sat[0].evidence["arrivals"] > 0
        assert sat[0].evidence["queue_capacity"] == 4


class TestServingReportSection:
    def test_serving_section_renders_for_serve_run(self):
        tracer, metrics = _serve_run(min_blades=1, max_blades=1,
                                     queue_capacity=4)
        html = render_report(tracer, metrics, analyze_run(tracer, metrics))
        assert 'id="serving"' in html
        assert "Serving layer" in html
        assert "queue-saturation" in html

    def test_serving_section_absent_for_batch_run(self, healthy_run):
        tracer, metrics, _ = healthy_run
        html = render_report(tracer, metrics, analyze_run(tracer, metrics))
        assert 'id="serving"' not in html

    def test_serve_cli_report_is_self_contained(self, tmp_path):
        path = tmp_path / "serve.html"
        code = main(["serve", "--duration", "600", "--arrival-rate", "0.05",
                     "--seed", "7", "--report", str(path)])
        assert code == 0
        html = path.read_text()
        assert 'id="serving"' in html
        assert re.search(r"https?://", html) is None
