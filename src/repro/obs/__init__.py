"""Observability: spans, metrics and trace export for scheduler runs.

The runtimes in :mod:`repro.core` make feedback-driven decisions (MGPS's
utilization window, the LLP chunk tuner, the granularity test); this
package makes those decisions observable without perturbing them:

* :mod:`repro.obs.spans` — nested, attributed intervals recorded through
  the existing :class:`~repro.sim.trace.Tracer`;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a per-run :class:`MetricsRegistry` (no-op when absent);
* :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON and the
  JSONL record sink;
* :mod:`repro.obs.runview` — the single-pass fold of a finished run
  that the report, the monitor and the timeline read;
* :mod:`repro.obs.monitor` — rule-based post-run health detectors
  (starvation, oscillation, saturation, imbalance, churn);
* :mod:`repro.obs.report` — one self-contained HTML performance report
  per run (inline SVG, no network);
* :mod:`repro.obs.bench` — the tracked benchmark trajectory and its
  regression gate over the committed ``BENCH_*.json`` baselines;
* :mod:`repro.obs.ledger` — the wall-time layer ledger: per-layer spans
  recorded by wrapping public layer boundaries from outside for one
  run (calls, inclusive/self time, p50/p95, kernel events/sec);
* :mod:`repro.obs.causal` — post-hoc causal span trees (per-job serve
  lifecycles, off-load attempt/backoff/fallback/LLP-fan-out trees);
* :mod:`repro.obs.attribution` — critical-path extraction and
  aggregate latency breakdowns (``serve.breakdown.*``);
* :mod:`repro.obs.timeseries` — deterministic sim-time-bucketed gauge
  series sampled from a finished trace.

Everything is stdlib-only and hangs off per-run objects — no globals.
"""

from .attribution import (
    aggregate_breakdown,
    job_summary,
    publish_breakdown,
    render_explain,
    top_slowest,
)
from .bench import (
    check_baselines,
    check_perf_floors,
    compare,
    measure_core,
    measure_faults,
    measure_serve,
    measure_throughput,
)
from .export import (
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
    write_trace_jsonl,
)
from .causal import (
    JobTree,
    PHASE_ORDER,
    ReconciliationError,
    SpanNode,
    build_job_trees,
    build_offload_trees,
    critical_path,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    labeled,
)
from .monitor import (
    HealthFinding,
    HealthMonitor,
    MonitorConfig,
    Threshold,
    analyze_run,
    parse_threshold,
    render_findings,
    resolve_metric,
)
from .ledger import Ledger, render_ledger, write_ledger_trace
from .report import render_report, write_report
from .spans import NULL_SPAN, Span, SpanRecorder
from .timeseries import TimeSeries, sample_timeseries

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "labeled",
    "Span",
    "SpanRecorder",
    "NULL_SPAN",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_trace_jsonl",
    "HealthFinding",
    "HealthMonitor",
    "MonitorConfig",
    "Threshold",
    "analyze_run",
    "parse_threshold",
    "render_findings",
    "resolve_metric",
    "render_report",
    "write_report",
    "Ledger",
    "render_ledger",
    "write_ledger_trace",
    "measure_core",
    "measure_faults",
    "measure_serve",
    "measure_throughput",
    "compare",
    "check_baselines",
    "check_perf_floors",
    "JobTree",
    "PHASE_ORDER",
    "ReconciliationError",
    "SpanNode",
    "build_job_trees",
    "build_offload_trees",
    "critical_path",
    "aggregate_breakdown",
    "job_summary",
    "publish_breakdown",
    "render_explain",
    "top_slowest",
    "TimeSeries",
    "sample_timeseries",
]
