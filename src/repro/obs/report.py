"""Self-contained HTML performance report for one scheduler run.

``render_report`` turns a finished run's span stream + metrics registry
(+ the health monitor's findings) into a single HTML file with inline
CSS and inline SVG — no scripts, no network, no external URLs — so the
artifact can be attached to a CI run or mailed around and still open a
decade later.  Sections (each with a stable anchor, asserted by tests):

* ``#summary`` — headline stat tiles (makespan, SPE utilization, ...);
* ``#findings`` — the health monitor's verdicts as a table;
* ``#gantt`` — one utilization lane per SPE actor, master vs LLP-worker
  task intervals;
* ``#u-series`` — the MGPS window-``U`` estimate per decision with the
  LLP trigger threshold marked;
* ``#latency`` — off-load dispatch-to-completion latency histogram;
  for a serving run also the per-job sojourn phase breakdown (overall,
  per tenant and percentile exemplars) and windowed gauge sparklines;
* ``#llp-adaptation`` — the master chunk fraction per loop invocation
  (the adaptive-unbalancing trajectory);
* ``#serving`` — the serving lane: per-tenant SLO table (tail latency,
  goodput, rejection and deadline-miss rates), job sojourn histogram
  and fleet lifecycle events; present only when the run carried
  ``serve.*`` metrics (``repro serve``);
* ``#workflows`` — the workflow-DAG lane: stage-cache and bootstop
  headline numbers and the stage lifecycle log; present only when the
  run served workflows (``repro dag``);
* ``#perf`` — the wall-time lane: top layers of the
  :class:`~repro.obs.ledger.Ledger` by self time as self-vs-child bars,
  kernel events/sec and the unattributed remainder (empty state when
  the run was not recorded under a ledger);
* ``#faults`` — injected faults and the runtime's recovery actions as a
  time-ordered event table (empty state when the run was fault-free).

Every lane reads the run through one :func:`~repro.obs.runview.read_run`
fold; event tables show at most 200 rows and count the rest.

Charts follow the fixed mark specs (2px lines, thin rounded bars, 2px
surface gaps, hairline grid) and a categorical palette validated for
color-vision deficiency; identity is never carried by color alone (every
multi-series chart has a legend, marks carry native ``<title>``
tooltips, and the findings table pairs severity color with a glyph and
label).
"""

from __future__ import annotations

import html
import math
import re
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..sim.trace import Row, Tracer
from .monitor import HealthFinding
from .runview import (
    FAULT_EVENT_LABELS,
    SERVE_OPS_EVENTS,
    WORKFLOW_EVENTS,
    Decision,
    LoopInvocation,
    SpeTask,
    read_run,
    registry_value,
)

__all__ = ["render_report", "write_report"]


# -- data extraction ----------------------------------------------------------

def _adaptation_series(
    loops: Sequence[LoopInvocation],
) -> Dict[str, List[Tuple[int, float, float]]]:
    """Per loop: [(invocation index, master_fraction, join_idle_us)].

    The series key names the active :class:`~repro.core.llp.LoopSchedule`
    whenever it is not the default single split, so self-scheduling runs
    are distinguishable in the chart legend.
    """
    series: Dict[str, List[Tuple[int, float, float]]] = {}
    for inv in loops:
        suffix = "" if inv.schedule == "static" else f", {inv.schedule}"
        seq = series.setdefault(f"{inv.function} (k={inv.k}{suffix})", [])
        seq.append((len(seq), inv.master_fraction, inv.join_idle_us))
    return series


def _llp_schedule_note(loops: Sequence[LoopInvocation]) -> str:
    """Chart note: active loop schedule(s) with chunk-assignment counts."""
    per_schedule: Dict[str, Tuple[int, int]] = {}
    for inv in loops:
        invocations, chunks = per_schedule.get(inv.schedule, (0, 0))
        per_schedule[inv.schedule] = (invocations + 1, chunks + inv.chunks)
    if not per_schedule:
        return ""
    parts = ", ".join(
        f"{name}: {inv} invocations, {chunks} chunks assigned"
        for name, (inv, chunks) in sorted(per_schedule.items())
    )
    return f'<p class="chart-note">Loop schedule &#8212; {_esc(parts)}</p>'


# -- svg primitives -----------------------------------------------------------

_W = 720          # chart viewBox width
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 52, 16, 12, 30


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000:
        return f"{v:,.0f}"
    if abs(v) >= 10:
        return f"{v:.0f}"
    if abs(v) >= 1:
        return f"{v:.1f}".rstrip("0").rstrip(".")
    return f"{v:.2g}"


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Clean tick positions covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(1, n)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1, 2, 5, 10):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12:
        out.append(round(t, 12))
        t += step
    return out or [lo]


def _grid_and_axes(
    plot_h: float,
    x_lo: float, x_hi: float, y_lo: float, y_hi: float,
    x_label: str, y_label: str,
    x_fmt=None, y_fmt=None,
    y_axis: bool = True, x_ticks: bool = True,
) -> Tuple[str, Any, Any]:
    """Hairline grid + tick labels; returns (svg, x_scale, y_scale).

    ``y_axis=False`` drops the horizontal gridlines and y tick labels
    (Gantt lanes label themselves); ``x_ticks=False`` drops numeric x
    labels (categorical bins label their own marks).
    """
    plot_w = _W - _PAD_L - _PAD_R
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    sx = lambda v: _PAD_L + (v - x_lo) / span_x * plot_w
    sy = lambda v: _PAD_T + plot_h - (v - y_lo) / span_y * plot_h
    x_fmt = x_fmt or _fmt
    y_fmt = y_fmt or _fmt
    parts = []
    if y_axis:
        for t in _ticks(y_lo, y_hi):
            y = sy(t)
            parts.append(
                f'<line class="grid" x1="{_PAD_L}" y1="{y:.1f}" '
                f'x2="{_W - _PAD_R}" y2="{y:.1f}"/>'
            )
            parts.append(
                f'<text class="tick" x="{_PAD_L - 6}" y="{y + 3:.1f}" '
                f'text-anchor="end">{_esc(y_fmt(t))}</text>'
            )
    if x_ticks:
        for t in _ticks(x_lo, x_hi, 8):
            x = sx(t)
            parts.append(
                f'<text class="tick" x="{x:.1f}" y="{_PAD_T + plot_h + 14}" '
                f'text-anchor="middle">{_esc(x_fmt(t))}</text>'
            )
    parts.append(
        f'<line class="axis" x1="{_PAD_L}" y1="{_PAD_T + plot_h}" '
        f'x2="{_W - _PAD_R}" y2="{_PAD_T + plot_h}"/>'
    )
    parts.append(
        f'<text class="axis-label" x="{_W - _PAD_R}" '
        f'y="{_PAD_T + plot_h + 26}" text-anchor="end">{_esc(x_label)}</text>'
    )
    if y_label:
        parts.append(
            f'<text class="axis-label" x="{_PAD_L}" y="{_PAD_T - 2}" '
            f'text-anchor="start">{_esc(y_label)}</text>'
        )
    return "".join(parts), sx, sy


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """Inline legend: [(css-class, label)] -> swatch + text row."""
    items = "".join(
        f'<span class="key"><span class="swatch {cls}"></span>{_esc(lab)}</span>'
        for cls, lab in entries
    )
    return f'<div class="legend">{items}</div>'


def _svg(height: float, label: str, parts: Sequence[str],
         cls: str = "") -> str:
    """The chart frame: a full-width ``viewBox`` of ``height`` around
    ``parts``, announced to screen readers as ``label``."""
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<svg viewBox="0 0 {_W} {height}"{cls_attr} role="img" '
            f'aria-label="{_esc(label)}">{"".join(parts)}</svg>')


# -- charts -------------------------------------------------------------------

def _gantt_svg(lanes: Dict[str, List[SpeTask]], makespan: float) -> str:
    if not lanes or makespan <= 0:
        return '<p class="empty">No SPE task intervals recorded.</p>'
    lane_h, gap = 18, 6
    plot_h = len(lanes) * (lane_h + gap) - gap
    unit = 1e3 if makespan < 0.5 else 1.0
    unit_name = "ms" if unit == 1e3 else "s"
    grid, sx, _sy = _grid_and_axes(
        plot_h, 0.0, makespan * unit, 0.0, 1.0,
        f"time [{unit_name}]", "",
        y_axis=False,
    )
    parts = [grid]
    for i, (actor, tasks) in enumerate(lanes.items()):
        y = _PAD_T + i * (lane_h + gap)
        busy = sum(t.end - t.start for t in tasks) / makespan
        parts.append(
            f'<text class="tick" x="{_PAD_L - 6}" y="{y + lane_h / 2 + 3}" '
            f'text-anchor="end">{_esc(actor)} {busy:.0%}</text>'
        )
        parts.append(
            f'<rect class="lane" x="{_PAD_L}" y="{y}" '
            f'width="{_W - _PAD_L - _PAD_R}" height="{lane_h}"/>'
        )
        for _spe, s, e, role, fn, _proc, _workers in tasks:
            x0, x1 = sx(s * unit), sx(e * unit)
            w = max(x1 - x0 - 0.5, 0.75)  # 0.5px surface gap between tasks
            cls = "s3" if role == "worker" else "s1"
            title = (f"{fn} on {actor} ({role}): "
                     f"{(e - s) * 1e6:.1f} us at t={s * unit:.3f} {unit_name}")
            parts.append(
                f'<rect class="{cls}" x="{x0:.2f}" y="{y + 1}" '
                f'width="{w:.2f}" height="{lane_h - 2}">'
                f'<title>{_esc(title)}</title></rect>'
            )
    svg = _svg(_PAD_T + plot_h + _PAD_B, "SPE utilization Gantt", parts)
    return _legend([("s1", "task (master SPE)"),
                    ("s3", "LLP worker chunk")]) + svg


def _u_series_svg(series: Sequence[Decision], n_spes: int) -> str:
    if not series:
        return ('<p class="empty">No MGPS window decisions recorded '
                '(scheduler without a utilization window).</p>')
    plot_h = 180
    y_hi = max(n_spes, max(d.u for d in series))
    grid, sx, sy = _grid_and_axes(
        plot_h, 0, max(len(series) - 1, 1), 0, y_hi,
        "window decision #", "U (exposed task parallelism)",
    )
    pts = " ".join(
        f"{sx(i):.1f},{sy(d.u):.1f}" for i, d in enumerate(series)
    )
    threshold = n_spes / 2  # the MGPS LLP trigger point
    thr_y = sy(threshold)
    parts = [grid]
    parts.append(
        f'<line class="threshold" x1="{_PAD_L}" y1="{thr_y:.1f}" '
        f'x2="{_W - _PAD_R}" y2="{thr_y:.1f}"/>'
    )
    parts.append(
        f'<text class="threshold-label" x="{_W - _PAD_R - 4}" '
        f'y="{thr_y - 4:.1f}" text-anchor="end">'
        f'LLP trigger (U &#8804; {_fmt(threshold)})</text>'
    )
    parts.append(f'<polyline class="line s1" points="{pts}"/>')
    for i, (t, u, active) in enumerate(series):
        state = "LLP on" if active else "LLP off"
        parts.append(
            f'<circle class="dot {"s1" if active else "hollow"}" '
            f'cx="{sx(i):.1f}" cy="{sy(u):.1f}" r="3">'
            f'<title>decision {i}: U={_fmt(u)}, {state}, '
            f't={t * 1e3:.3f} ms</title></circle>'
        )
    svg = _svg(_PAD_T + plot_h + _PAD_B,
               "Window utilization U per decision", parts)
    return _legend([("s1", "U estimate (filled dot: LLP active)")]) + svg


def _histogram_svg(
    registry, metric: str, cls: str, quantity: str, unit: str, noun: str,
    label: str, empty: str, stats: bool = False,
) -> str:
    """Bar chart of one histogram's buckets, one rounded bar per bucket.

    ``quantity`` and ``unit`` name the x axis, ``noun`` the counted
    things; ``stats`` adds a p50/p90/p99/max note above the chart.
    """
    hist = registry.get(metric) if registry else None
    if hist is None or getattr(hist, "count", 0) == 0:
        return f'<p class="empty">{empty}</p>'
    snap = hist.snapshot()
    buckets = snap["buckets"]
    if not buckets:
        return f'<p class="empty">{empty}</p>'
    plot_h = 180
    n = len(buckets)
    max_count = max(c for _b, c in buckets)
    grid, _sx, sy = _grid_and_axes(
        plot_h, 0, n, 0, max_count,
        f"{quantity} bucket [{unit}, upper bound]", noun,
        x_ticks=False,  # buckets are categorical bins, labeled per bar
    )
    plot_w = _W - _PAD_L - _PAD_R
    slot = plot_w / n
    bar_w = min(24.0, slot - 2.0)  # 2px surface gap between bars
    parts = [grid]
    for i, (bound, count) in enumerate(buckets):
        x = _PAD_L + i * slot + (slot - bar_w) / 2
        y = sy(count)
        h = _PAD_T + plot_h - y
        r = min(4.0, h / 2, bar_w / 2)
        tick = "+inf" if bound == "+inf" else _fmt(float(bound))
        # Rounded data end, square baseline.
        parts.append(
            f'<path class="{cls}" d="M{x:.1f},{_PAD_T + plot_h:.1f} '
            f'V{y + r:.1f} Q{x:.1f},{y:.1f} {x + r:.1f},{y:.1f} '
            f'H{x + bar_w - r:.1f} Q{x + bar_w:.1f},{y:.1f} '
            f'{x + bar_w:.1f},{y + r:.1f} V{_PAD_T + plot_h:.1f} Z">'
            f'<title>&#8804; {_esc(tick)} {unit}: {count} {noun}</title>'
            f'</path>'
        )
        parts.append(
            f'<text class="tick" x="{x + bar_w / 2:.1f}" '
            f'y="{_PAD_T + plot_h + 14}" text-anchor="middle">'
            f'{_esc(tick)}</text>'
        )
    svg = _svg(_PAD_T + plot_h + _PAD_B, label, parts)
    if not stats:
        return svg
    note = " &#183; ".join(f'{p} {_fmt(snap[p])} {unit}'
                           for p in ("p50", "p90", "p99", "max"))
    return f'<p class="chart-note">{note}</p>{svg}'


_PHASE_CLASS = {
    "admission": "p1",
    "blade-queue": "p2",
    "dispatch-overhead": "p4",
    "service": "p3",
}


def _phase_class(name: str) -> str:
    # Aborted attempts, requeue hops and anything unexpected render in
    # the critical hue so failover cost is visually loud.
    return _PHASE_CLASS.get(name, "p5")


def _stacked_bar(label: str, shares: Dict[str, float], detail: str) -> str:
    """One horizontal 100%-stacked phase bar with a row label."""
    bar_h, label_w = 18, 150
    plot_w = _W - label_w - _PAD_R
    parts = [
        f'<text class="tick" x="{label_w - 8}" y="{bar_h / 2 + 3:.1f}" '
        f'text-anchor="end">{_esc(label)}</text>'
    ]
    x = float(label_w)
    for name, share in shares.items():
        w = max(0.0, share) * plot_w
        if w <= 0.0:
            continue
        parts.append(
            f'<rect class="{_phase_class(name)}" x="{x:.1f}" y="0" '
            f'width="{w:.1f}" height="{bar_h}">'
            f'<title>{_esc(label)} &#8212; {_esc(name)}: '
            f'{share:.1%}{_esc(detail)}</title></rect>'
        )
        x += w
    return _svg(bar_h, f"Phase breakdown: {label}", parts, "phase-bar")


def _sparkline(label: str, values: Sequence[float], note: str = "") -> str:
    """A small inline trend line for one windowed gauge series."""
    h, label_w = 34, 150
    plot_w = _W - label_w - _PAD_R
    peak = max(values) if values else 0.0
    hi = peak if peak > 0.0 else 1.0
    n = max(1, len(values) - 1)
    pts = " ".join(
        f"{label_w + i / n * plot_w:.1f},"
        f"{2 + (h - 4) * (1 - v / hi):.1f}"
        for i, v in enumerate(values)
    )
    tail = note or f"peak {_fmt(peak)}"
    return _svg(h, f"{label} over time", [
        f'<text class="tick" x="{label_w - 8}" y="{h / 2 + 3:.1f}" '
        f'text-anchor="end">{_esc(label)}</text>'
        f'<polyline class="spark" points="{pts}"/>'
        f'<text class="tick" x="{_W - _PAD_R}" y="{h / 2 + 3:.1f}" '
        f'text-anchor="end">{_esc(tail)}</text>'
    ], "spark-row")


def _attribution_html(tracer: Optional[Tracer], has_serve: bool) -> str:
    """Serve phase-breakdown bars + windowed sparklines for #latency.

    Returns '' for non-serving runs (the off-load histogram already
    covers them); a serving run with zero completed jobs gets an
    explicit empty state instead of a division by zero.
    """
    if not has_serve:
        return ""
    from .attribution import aggregate_breakdown
    from .causal import build_job_trees
    from .timeseries import sample_timeseries

    trees = build_job_trees(tracer)
    breakdown = aggregate_breakdown(trees)
    parts = ['<h3>Sojourn phase breakdown</h3>']
    if breakdown.get("completed", 0) == 0:
        lost = breakdown.get("lost", 0)
        parts.append(
            '<p class="empty">No completed jobs &#8212; nothing to '
            f'attribute ({len(trees)} observed, {lost} lost).</p>'
        )
        return "".join(parts)
    overall = breakdown["overall"]
    legend: Dict[str, str] = {}  # first phase name per color class
    for name in overall["phase_shares"]:
        legend.setdefault(_phase_class(name), name)
    parts.append(_legend(list(legend.items())))
    parts.append(_stacked_bar(
        f"all jobs ({overall['jobs']})", overall["phase_shares"],
        f" &#183; mean sojourn {overall['mean_sojourn_s']:.2f} s",
    ))
    for tenant, group in breakdown.get("tenants", {}).items():
        parts.append(_stacked_bar(
            f"{tenant} ({group['jobs']})", group["phase_shares"],
            f" &#183; mean sojourn {group['mean_sojourn_s']:.2f} s",
        ))
    for p, ex in overall["percentile_exemplars"].items():
        parts.append(_stacked_bar(
            f"{p} exemplar (job {ex['job_id']})", ex["phase_shares"],
            f" &#183; sojourn {ex['sojourn_s']:.2f} s",
        ))
    ts = sample_timeseries(tracer)
    spark_keys = [k for k in ("queue_depth", "in_flight") if k in ts.series]
    spark_keys += sorted(k for k in ts.series if k.endswith(".u"))
    if spark_keys:
        parts.append(
            f'<h3>Windowed series ({ts.window_s:.0f} s buckets)</h3>'
        )
        for key in spark_keys:
            vals = list(ts.series[key])
            note = (f"peak {max(vals):.0%}" if key.endswith(".u")
                    else "")
            parts.append(_sparkline(key, vals, note))
    return "".join(parts)


def _adaptation_svg(series: Dict[str, List[Tuple[int, float, float]]]) -> str:
    if not series:
        return ('<p class="empty">No loop-parallel invocations recorded '
                '(LLP never fired).</p>')
    # Fixed-order categorical slots; beyond three series, fold the
    # shortest into "other" rather than cycling hues.
    keys = sorted(series, key=lambda k: -len(series[k]))
    shown, folded = keys[:3], keys[3:]
    plot_h = 180
    n_max = max(len(series[k]) for k in shown)
    f_vals = [f for k in shown for _i, f, _j in series[k]]
    y_lo = min(0.0, min(f_vals))
    y_hi = max(1.0, max(f_vals))
    grid, sx_raw, sy = _grid_and_axes(
        plot_h, 0, max(n_max - 1, 1), y_lo, y_hi,
        "loop invocation #", "master chunk fraction",
        y_fmt=lambda v: f"{v:.2g}",
    )
    parts = [grid]
    slot_classes = ["s1", "s2", "s3"]
    for cls, key in zip(slot_classes, shown):
        seq = series[key]
        scale = (n_max - 1) / max(len(seq) - 1, 1) if n_max > 1 else 1.0
        pts = " ".join(
            f"{sx_raw(i * scale):.1f},{sy(f):.1f}" for i, f, _j in seq
        )
        parts.append(f'<polyline class="line {cls}" points="{pts}"/>')
        last_i, last_f, last_j = seq[-1]
        parts.append(
            f'<circle class="dot {cls}" cx="{sx_raw(last_i * scale):.1f}" '
            f'cy="{sy(last_f):.1f}" r="4">'
            f'<title>{_esc(key)}: fraction {last_f:.3f} after '
            f'{len(seq)} invocations (join idle {last_j:.2f} us)</title>'
            f'</circle>'
        )
    svg = _svg(_PAD_T + plot_h + _PAD_B, "LLP chunk adaptation", parts)
    note = ""
    if folded:
        note = (f'<p class="chart-note">{len(folded)} further loop '
                f'series omitted: {_esc(", ".join(folded))}</p>')
    return _legend(list(zip(slot_classes, shown))) + svg + note


_TABLE_ROWS = 200  # event-table rows shown; the rest are counted


def _table(head: Sequence[str], rows: Iterable[str]) -> str:
    """A table with header cells ``head`` over prebuilt ``<tr>`` rows."""
    th = "".join(f"<th>{h}</th>" for h in head)
    return (f'<table><thead><tr>{th}</tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _event_table(events: Sequence[Row], head: Sequence[str],
                 cells: Callable[[Row], str], noun: str) -> str:
    """A time-ordered event table, one ``cells(row)`` row per event up
    to 200; a note counts the ``noun`` cut beyond that."""
    shown = events[:_TABLE_ROWS]
    table = _table(head, (f"<tr>{cells(row)}</tr>" for row in shown))
    if len(events) == len(shown):
        return table
    return (f'{table}<p class="chart-note">{len(events) - len(shown)} '
            f'further {noun} omitted.</p>')


def _detail_cell(description: str, payload: Dict[str, Any],
                 skip: str = "") -> str:
    """The description cell, with the payload (minus ``skip``) as
    evidence."""
    detail = "; ".join(
        f"{k}={v}" for k, v in sorted(payload.items()) if k != skip
    )
    return (f'<td>{_esc(description)}'
            f'<div class="evidence">{_esc(detail)}</div></td>')


def _fault_cells(row: Row) -> str:
    time, _cat, actor, event, payload = row
    kind, desc = FAULT_EVENT_LABELS.get(event, ("injected", event))
    chip = "critical" if kind == "injected" else "warning"
    return (f'<td class="mono">{time * 1e3:.3f} ms</td>'
            f'<td><span class="chip {chip}">{_esc(kind)}</span></td>'
            f'<td class="mono">{_esc(event)}</td>'
            f'<td class="mono">{_esc(actor)}</td>'
            + _detail_cell(desc, payload, skip="function"))


def _serve_log(events: Sequence[Row], descriptions: Dict[str, str],
               chips: Dict[str, str], noun: str) -> str:
    """A serve event log; ``chips`` colors an event (default warning)."""
    def cells(row: Row) -> str:
        time, _cat, actor, event, payload = row
        return (f'<td class="mono">{time:.1f} s</td>'
                f'<td><span class="chip {chips.get(event, "warning")}">'
                f'{_esc(event)}</span></td>'
                f'<td class="mono">{_esc(actor)}</td>'
                + _detail_cell(descriptions[event], payload))
    return _event_table(events, ("time", "event", "actor", "detail"),
                        cells, noun)


_FAULT_COUNTERS = (
    ("retries", "runtime.offload_retries"),
    ("PPE fallbacks after retries", "runtime.retry_fallbacks"),
    ("watchdog timeouts", "runtime.watchdog_timeouts"),
    ("DMA errors", "faults.dma_errors"),
    ("SPE kills", "faults.spe_kills"),
    ("blacklists", "runtime.spe_blacklists"),
    ("live SPEs at end", "run.live_spes"),
    ("blade deaths", "serve.blade_deaths"),
    ("blade crashes (flap)", "serve.blade_crashes"),
    ("blade rejoins", "serve.blade_rejoins"),
    ("breaker opens", "serve.breaker_opens"),
    ("breaker closes", "serve.breaker_closes"),
    ("breaker probes", "serve.breaker_probes"),
    ("hedges", "serve.hedges"),
    ("hedge wins", "serve.hedge_wins"),
    ("deadline aborts", "serve.deadline_aborts"),
)


def _faults_html(events: Sequence[Row], registry) -> str:
    if not events:
        return ('<p class="empty">No faults injected or detected &#8212; '
                'the run was fault-free.</p>')
    counters = ((label, registry_value(registry, name))
                for label, name in _FAULT_COUNTERS)
    note = " &#183; ".join(
        f"{_esc(label)} {_fmt(v)}" for label, v in counters if v > 0
    )
    head = f'<p class="chart-note">{note}</p>' if note else ""
    return head + _event_table(
        events, ("time", "kind", "event", "actor", "detail"),
        _fault_cells, "fault events",
    )


_SERVE_TENANT_RE = re.compile(
    r'^serve\.(?P<key>latency_p50_s|latency_p95_s|latency_p99_s|'
    r'rejection_rate|deadline_miss_rate|goodput_jps)'
    r'\{tenant="(?P<tenant>[^"]+)"\}$'
)

_OPS_CHIPS = dict.fromkeys(
    ("blade-kill", "blade-flap", "lost", "deadline-abort"), "critical")
_WORKFLOW_CHIPS = dict.fromkeys(
    ("cache-hit", "bootstop-converged", "workflow-done"), "good")


def _serving_html(ops: Sequence[Row], registry) -> Optional[str]:
    """The serving lane, or None when the run had no serving metrics."""
    value = partial(registry_value, registry)
    arrivals = value("serve.arrivals")
    if arrivals <= 0:
        return None
    headline = [
        ("offered", _fmt(arrivals)),
        ("admitted", _fmt(value("serve.admitted"))),
        ("rejected", _fmt(value("serve.rejected"))),
        ("completed", _fmt(value("serve.completed"))),
        ("p50", f"{value('serve.latency_p50_s'):.1f} s"),
        ("p95", f"{value('serve.latency_p95_s'):.1f} s"),
        ("p99", f"{value('serve.latency_p99_s'):.1f} s"),
        ("goodput", f"{value('serve.goodput_jps') * 3600:.1f} jobs/h"),
        ("rejection rate", f"{value('serve.rejection_rate'):.1%}"),
        ("deadline misses", _fmt(value("serve.deadline_misses"))),
        ("failovers", _fmt(value("serve.failovers"))),
        ("active blades", _fmt(value("serve.active_blades"))),
    ]
    note = " &#183; ".join(f"{_esc(k)} {_esc(v)}" for k, v in headline)
    parts = [f'<p class="chart-note">{note}</p>',
             _histogram_svg(registry, "serve.latency_s", "s2", "sojourn",
                            "s", "jobs", "Job sojourn time histogram",
                            "No completed jobs recorded.")]
    # Per-tenant SLO table from the labeled summary gauges.
    tenants: Dict[str, Dict[str, float]] = {}
    if registry is not None:
        for name in registry.names():
            m = _SERVE_TENANT_RE.match(name)
            if m:
                tenants.setdefault(m.group("tenant"), {})[m.group("key")] = (
                    value(name)
                )
    if tenants:
        rows = []
        for tenant in sorted(tenants):
            t = tenants[tenant]
            rows.append(
                f'<tr><td class="mono">{_esc(tenant)}</td>'
                f'<td class="mono">{t.get("latency_p50_s", 0):.1f}</td>'
                f'<td class="mono">{t.get("latency_p95_s", 0):.1f}</td>'
                f'<td class="mono">{t.get("latency_p99_s", 0):.1f}</td>'
                f'<td class="mono">{t.get("goodput_jps", 0) * 3600:.1f}</td>'
                f'<td class="mono">{t.get("rejection_rate", 0):.1%}</td>'
                f'<td class="mono">{t.get("deadline_miss_rate", 0):.1%}</td>'
                f'</tr>'
            )
        parts.append(_table(
            ("tenant", "p50 [s]", "p95 [s]", "p99 [s]", "goodput [jobs/h]",
             "rejected", "deadline misses"), rows))
    # Fleet lifecycle events (scaling, node deaths, failover).
    if ops:
        parts.append(_serve_log(ops, SERVE_OPS_EVENTS, _OPS_CHIPS,
                                "serving-ops events"))
    return "".join(parts)


def _workflows_html(events: Sequence[Row], registry) -> Optional[str]:
    """The workflow-DAG lane, or None when the run served no workflows."""
    value = partial(registry_value, registry)
    workflows = value("serve.dag.workflows")
    if workflows <= 0:
        return None
    hits = value("serve.dag.cache_hits")
    misses = value("serve.dag.cache_misses")
    lookups = hits + misses
    headline = [
        ("workflows", _fmt(workflows)),
        ("stages", _fmt(value("serve.dag.stages"))),
        ("cache hits", _fmt(hits)),
        ("cache misses", _fmt(misses)),
        ("hit rate", f"{hits / lookups if lookups else 0.0:.1%}"),
        ("wasted work avoided",
         f"{value('serve.dag.wasted_work_avoided_s'):.1f} s"),
        ("bootstop cancelled", _fmt(value("serve.dag.bootstop_cancelled"))),
        ("bootstop savings", f"{value('serve.dag.bootstop_savings'):.1%}"),
        ("service-s saved", f"{value('serve.dag.bootstop_saved_s'):.1f} s"),
    ]
    note = " &#183; ".join(f"{_esc(k)} {_esc(v)}" for k, v in headline)
    parts = [f'<p class="chart-note">{note}</p>']
    # Stage lifecycle log: submissions, cache hits, bootstop, resolution.
    if events:
        shown = [r for r in events if r[3] != "workflow-cancel"]
        cancels = len(events) - len(shown)
        parts.append(_serve_log(shown, WORKFLOW_EVENTS, _WORKFLOW_CHIPS,
                                "workflow events"))
        if cancels:
            parts.append(
                f'<p class="chart-note">{cancels} workflow-cancel '
                f'events (one per cancelled replicate) appear in the '
                f'serving lane&#8217;s ops log.</p>'
            )
    return "".join(parts)


def _kernel_note(registry) -> str:
    """Kernel-health chips for the ``#perf`` lane.

    Reads the deterministic ``run.kernel.*`` gauges the runner publishes
    from :meth:`Environment.kernel_stats`; empty string when the run had
    no metrics registry attached (the gauges are simply absent).
    """
    if registry is None or registry.get("run.kernel.pool_hit_rate") is None:
        return ""
    pool = registry_value(registry, "run.kernel.pool_hit_rate")
    batch = registry_value(registry, "run.kernel.batch_advance_fraction")
    pool_chip = "good" if pool >= 0.9 else "warning"
    return (
        '<p class="chart-note">event kernel &#183; '
        f'<span class="chip {pool_chip}">pool hit {pool:.1%}</span> '
        f'batch advance {batch:.1%}</p>'
    )


def _perf_html(profile: Optional[Dict[str, Any]], registry=None) -> str:
    """The ``#perf`` lane: where the run's wall time went, per layer.

    ``profile`` is a :meth:`~repro.obs.ledger.Ledger.report` dict.
    Always rendered (stable anchor); shows an empty-state note when the
    run was not recorded under a ledger.  ``registry`` additionally
    feeds the kernel-health chips (``run.kernel.*`` gauges).
    """
    kernel = _kernel_note(registry)
    if not profile or not profile.get("layers"):
        return kernel + (
                '<p class="empty">No wall-time ledger recorded &#8212; '
                'run <span class="mono">repro profile</span> or '
                '<span class="mono">repro report</span> (which records '
                'the layer ledger automatically) to populate this '
                'lane.</p>')
    layers = profile["layers"]
    note = (f'wall {profile["wall_s"]:.3f} s &#183; '
            f'{_fmt(profile["counters"]["sim.events"])} kernel events '
            f'&#183; {_fmt(profile["rates"]["events_per_wall_second"])} '
            f'events/s &#183; unattributed '
            f'{profile["unattributed_s"] * 1e3:.2f} ms')
    top = sorted(
        layers.items(), key=lambda kv: kv[1]["self_s"], reverse=True
    )[:12]
    # Self-vs-child horizontal bars: self time in series-1, time spent
    # in nested layers in series-3, scaled to the widest total.
    row_h, gap = 20, 6
    label_w = 220
    bar_max = _W - label_w - _PAD_R - 70
    max_total = max(row[1]["total_s"] for row in top) or 1.0
    parts = []
    for i, (name, row) in enumerate(top):
        y = i * (row_h + gap)
        self_w = bar_max * row["self_s"] / max_total
        child_w = bar_max * (row["total_s"] - row["self_s"]) / max_total
        tip = (f'{name}: {row["calls"]} calls, total '
               f'{row["total_s"] * 1e3:.2f} ms, self '
               f'{row["self_s"] * 1e3:.2f} ms, p50 {row["p50_us"]:.1f} us, '
               f'p95 {row["p95_us"]:.1f} us')
        parts.append(
            f'<text class="tick" x="{label_w - 8}" y="{y + row_h - 6}" '
            f'text-anchor="end">{_esc(name)}</text>'
            f'<rect class="s1" x="{label_w}" y="{y}" '
            f'width="{max(self_w, 1.0):.1f}" height="{row_h - 4}" rx="3">'
            f'<title>{_esc(tip)}</title></rect>'
            f'<rect class="s3" x="{label_w + max(self_w, 1.0):.1f}" '
            f'y="{y}" width="{child_w:.1f}" height="{row_h - 4}" rx="3">'
            f'<title>{_esc(tip)}</title></rect>'
            f'<text class="tick" '
            f'x="{label_w + max(self_w, 1.0) + child_w + 6:.1f}" '
            f'y="{y + row_h - 6}">{row["total_s"] * 1e3:.1f} ms</text>'
        )
    svg = _svg(len(top) * (row_h + gap), "Top wall-time layers", parts)
    rows = []
    for name, row in top:
        rows.append(
            f'<tr><td class="mono">{_esc(name)}</td>'
            f'<td class="mono">{row["calls"]}</td>'
            f'<td class="mono">{row["total_s"] * 1e3:.2f}</td>'
            f'<td class="mono">{row["self_s"] * 1e3:.2f}</td>'
            f'<td class="mono">{row["p50_us"]:.1f}</td>'
            f'<td class="mono">{row["p95_us"]:.1f}</td></tr>'
        )
    table = _table(("layer", "calls", "total [ms]", "self [ms]",
                    "p50 [us]", "p95 [us]"), rows)
    legend = _legend([
        ("s1", "self (exclusive) time"),
        ("s3", "time in nested layers"),
    ])
    return f'{kernel}<p class="chart-note">{note}</p>{legend}{svg}{table}'


def _findings_table(findings: Sequence[HealthFinding]) -> str:
    if not findings:
        return ('<p class="ok"><span class="chip good">&#10003; OK</span> '
                'All detectors passed &#8212; no findings.</p>')
    rows = []
    for f in findings:
        glyph = "&#10007;" if f.severity == "critical" else "&#9888;"
        evidence = "; ".join(
            f"{k}={f.evidence[k]}" for k in sorted(f.evidence)
        )
        rows.append(
            f'<tr><td><span class="chip {_esc(f.severity)}">{glyph} '
            f'{_esc(f.severity)}</span></td>'
            f'<td class="mono">{_esc(f.detector)}</td>'
            f'<td>{_esc(f.summary)}'
            f'<div class="evidence">{_esc(evidence)}</div></td></tr>'
        )
    return _table(("severity", "detector", "finding"), rows)


# -- page ---------------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --lane: #f0efec; --border: rgba(11,11,11,0.10);
  margin: 0; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --lane: #242422; --border: rgba(255,255,255,0.10);
  }
}
main { max-width: 860px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 0 0 8px; }
.meta { color: var(--text-secondary); margin: 0 0 16px; }
section { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 0 0 16px; }
.tile { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 108px; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; }
svg { width: 100%; height: auto; display: block; }
svg text { font: 10px system-ui, -apple-system, "Segoe UI", sans-serif; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--baseline); stroke-width: 1; }
.tick { fill: var(--muted); }
.axis-label { fill: var(--text-secondary); }
.lane { fill: var(--lane); }
rect.s1, path.s1, circle.s1 { fill: var(--series-1); }
rect.s2, path.s2, circle.s2 { fill: var(--series-2); }
rect.s3, path.s3, circle.s3 { fill: var(--series-3); }
polyline.line { fill: none; stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
polyline.s1 { stroke: var(--series-1); }
polyline.s2 { stroke: var(--series-2); }
polyline.s3 { stroke: var(--series-3); }
circle.dot { stroke: var(--surface-1); stroke-width: 2; }
circle.hollow { fill: var(--surface-1); stroke: var(--series-1); }
.threshold { stroke: var(--critical); stroke-width: 1; }
.threshold-label { fill: var(--text-secondary); }
.legend { display: flex; gap: 16px; flex-wrap: wrap;
  color: var(--text-secondary); font-size: 12px; margin: 0 0 8px; }
.key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.swatch.s1 { background: var(--series-1); }
.swatch.s2 { background: var(--series-2); }
.swatch.s3 { background: var(--series-3); }
rect.p1 { fill: var(--series-1); }
rect.p2 { fill: var(--series-2); }
rect.p3 { fill: var(--series-3); }
rect.p4 { fill: var(--warning); }
rect.p5 { fill: var(--critical); }
.swatch.p1 { background: var(--series-1); }
.swatch.p2 { background: var(--series-2); }
.swatch.p3 { background: var(--series-3); }
.swatch.p4 { background: var(--warning); }
.swatch.p5 { background: var(--critical); }
svg.phase-bar { display: block; margin: 4px 0; }
svg.spark-row { display: block; margin: 2px 0; }
polyline.spark { fill: none; stroke: var(--series-1); stroke-width: 1.5;
  stroke-linejoin: round; }
table { border-collapse: collapse; width: 100%; }
th { text-align: left; color: var(--text-secondary); font-weight: 600;
  font-size: 12px; border-bottom: 1px solid var(--baseline); padding: 6px 10px; }
td { border-bottom: 1px solid var(--grid); padding: 8px 10px;
  vertical-align: top; }
.mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
  font-size: 13px; }
.evidence { color: var(--muted); font-size: 12px; margin-top: 2px; }
.chip { display: inline-block; border-radius: 999px; padding: 1px 10px;
  font-size: 12px; font-weight: 600; color: #fff; white-space: nowrap; }
.chip.good { background: var(--good); }
.chip.warning { background: var(--warning); color: #0b0b0b; }
.chip.critical { background: var(--critical); }
.empty, .chart-note { color: var(--muted); font-size: 13px; }
.ok { margin: 0; }
footer { color: var(--muted); font-size: 12px; }
"""


def render_report(
    tracer: Optional[Tracer],
    registry,
    findings: Optional[Sequence[HealthFinding]] = None,
    title: str = "Scheduler run report",
    subtitle: str = "",
    profile: Optional[Dict[str, Any]] = None,
) -> str:
    """One self-contained HTML page for a finished run.

    ``profile`` is an optional :meth:`repro.obs.ledger.Ledger.report`
    dict; the ``#perf`` lane renders it (and shows an empty state when
    absent, keeping the section anchors stable).
    """
    findings = list(findings or [])
    run = read_run(tracer, registry)
    value = partial(registry_value, registry)
    tiles = [
        ("makespan", f"{value('run.makespan_s'):.2f} s"),
        ("SPE utilization", f"{value('run.spe_utilization'):.0%}"),
        ("off-loads", _fmt(value("runtime.offloads"))),
        ("LLP invocations", _fmt(value("llp.invocations"))),
        ("PPE fallbacks", _fmt(value("runtime.ppe_fallbacks"))),
        ("findings", str(len(findings))),
    ]
    tiles_html = "".join(
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
        for label, value in tiles
    )
    sections = [
        ("findings", "Health findings", _findings_table(findings)),
        ("gantt", "SPE utilization timeline",
         _gantt_svg(run.lanes, run.makespan)),
        ("u-series",
         "Window utilization U per MGPS decision",
         _u_series_svg(run.decisions, run.n_spes)),
        ("latency", "Off-load latency",
         _histogram_svg(registry, "runtime.offload_latency_us", "s1",
                        "latency", "us", "off-loads",
                        "Off-load latency histogram",
                        "No off-load latency samples recorded.", stats=True)
         + _attribution_html(tracer, run.has_serve)),
        ("llp-adaptation",
         "LLP adaptive unbalancing",
         _llp_schedule_note(run.loops)
         + _adaptation_svg(_adaptation_series(run.loops))),
    ]
    serving = _serving_html(run.ops_events, registry)
    if serving is not None:
        sections.append(("serving", "Serving layer", serving))
    workflows = _workflows_html(run.workflow_events, registry)
    if workflows is not None:
        sections.append(("workflows", "Workflow DAG", workflows))
    sections.append(
        ("perf", "Wall-time ledger", _perf_html(profile, registry))
    )
    sections.append(
        ("faults", "Faults and recovery",
         _faults_html(run.fault_events, registry))
    )
    body = "".join(
        f'<section id="{sid}"><h2>{_esc(heading)}</h2>{content}</section>'
        for sid, heading, content in sections
    )
    sub = f'<p class="meta">{_esc(subtitle)}</p>' if subtitle else ""
    return (
        '<!DOCTYPE html>\n<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n<style>{_CSS}</style>\n</head>\n"
        '<body class="viz-root">\n<main>\n'
        f'<header id="summary"><h1>{_esc(title)}</h1>{sub}'
        f'<div class="tiles">{tiles_html}</div></header>\n'
        f"{body}\n"
        "<footer>Generated by <span class=\"mono\">repro report</span> "
        "&#8212; self-contained, no network access required.</footer>\n"
        "</main>\n</body>\n</html>\n"
    )


def write_report(
    path,
    tracer: Optional[Tracer],
    registry,
    findings: Optional[Sequence[HealthFinding]] = None,
    title: str = "Scheduler run report",
    subtitle: str = "",
    profile: Optional[Dict[str, Any]] = None,
) -> str:
    """Render and write the report; returns the path written."""
    doc = render_report(tracer, registry, findings, title, subtitle,
                        profile=profile)
    with open(path, "w") as fh:
        fh.write(doc)
    return str(path)
