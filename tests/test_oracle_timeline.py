"""Tests for the oracle selector and the timeline renderer."""

import pytest

from repro import Workload, edtlp, mgps, run_experiment, static_hybrid
from repro.analysis.timeline import (
    TaskSpan,
    extract_spans,
    render_timeline,
    utilization_bar,
)
from repro.core.oracle import OracleSelector
from repro.sim import Tracer


class TestOracle:
    def test_picks_hybrid_at_low_tlp(self):
        oracle = OracleSelector(
            candidates=[edtlp(), static_hybrid(2), static_hybrid(4)]
        )
        choice = oracle.choose(Workload(bootstraps=1, tasks_per_bootstrap=150))
        assert choice.best_name.startswith("edtlp-llp")

    def test_picks_edtlp_at_high_tlp(self):
        oracle = OracleSelector(
            candidates=[edtlp(), static_hybrid(2), static_hybrid(4)]
        )
        choice = oracle.choose(Workload(bootstraps=16, tasks_per_bootstrap=100))
        assert choice.best_name == "edtlp"

    def test_mgps_close_to_oracle(self):
        """MGPS within 10% of oracle's pick, without the oracle."""
        oracle = OracleSelector(
            candidates=[edtlp(), static_hybrid(2), static_hybrid(4)]
        )
        for b in (1, 4, 16):
            wl = Workload(bootstraps=b, tasks_per_bootstrap=150)
            choice = oracle.choose(wl)
            mg = run_experiment(mgps(), wl)
            assert mg.makespan <= 1.10 * choice.best.makespan

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            OracleSelector(candidates=[])


class TestTimeline:
    def _traced_run(self, spec, bootstraps=2):
        tracer = Tracer(enabled=True)
        wl = Workload(bootstraps=bootstraps, tasks_per_bootstrap=80)
        result = run_experiment(spec, wl, tracer=tracer)
        return tracer, result

    def test_spans_pair_start_end(self):
        tracer, result = self._traced_run(edtlp())
        spans = extract_spans(tracer)
        assert len(spans) == result.offloads
        for s in spans:
            assert s.end > s.start
            assert 0 <= s.proc < result.n_processes

    def test_worker_spans_recorded_for_llp(self):
        tracer, result = self._traced_run(static_hybrid(4), bootstraps=1)
        spans = extract_spans(tracer)
        # master + 3 workers per off-load.
        assert len(spans) == 4 * result.offloads

    def test_spans_never_overlap_per_spe(self):
        tracer, _ = self._traced_run(mgps(), bootstraps=3)
        by_spe = {}
        for s in extract_spans(tracer):
            by_spe.setdefault(s.spe, []).append(s)
        for spans in by_spe.values():
            spans.sort(key=lambda s: s.start)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start + 1e-12

    def test_render_timeline_shape(self):
        tracer, _ = self._traced_run(edtlp())
        text = render_timeline(tracer, width=40)
        lines = text.splitlines()
        assert "SPE timeline" in lines[0]
        for line in lines[1:]:
            assert line.endswith("|")
            assert len(line.split("|")[1]) == 40

    def test_render_empty_trace(self):
        assert "no SPE activity" in render_timeline(Tracer(enabled=True))

    def test_render_validates_window(self):
        tracer, _ = self._traced_run(edtlp())
        with pytest.raises(ValueError):
            render_timeline(tracer, width=5)
        with pytest.raises(ValueError):
            render_timeline(tracer, t_start=1.0, t_end=0.5)

    def test_utilization_bar_fractions(self):
        tracer, result = self._traced_run(edtlp())
        text = utilization_bar(tracer, result.raw_makespan)
        assert "%" in text
        # every percentage is within [0, 100].
        for line in text.splitlines():
            pct = float(line.rsplit(" ", 1)[-1].rstrip("%"))
            assert 0.0 <= pct <= 100.0

    def test_tracer_disabled_by_default(self):
        wl = Workload(bootstraps=1, tasks_per_bootstrap=80)
        result = run_experiment(edtlp(), wl)  # no tracer
        assert result.makespan > 0  # and no crash / no recording overhead

    def test_unbalanced_trace_rejected(self):
        t = Tracer(enabled=True)
        t.emit(0.0, "spe", "x", "task_end")
        with pytest.raises(ValueError):
            extract_spans(t)
        t2 = Tracer(enabled=True)
        t2.emit(0.0, "spe", "x", "task_start", proc=0, function="f")
        t2.emit(0.1, "spe", "x", "task_start", proc=0, function="f")
        with pytest.raises(ValueError):
            extract_spans(t2)
