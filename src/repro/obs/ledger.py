"""Wall-time layer ledger: per-layer spans recorded from outside the program.

:meth:`Ledger.run` wraps the public function at each layer boundary (the
:func:`boundaries` table) with a timer that records one span per call,
``(id, parent, name, start, end, events)``, and restores the originals
on exit.  The program itself carries no timing code: a run without a
ledger executes exactly the code a run with one measures.

Each :meth:`Ledger.run` opens one root span, so every call belongs to
exactly one run.  A span's self time is its duration minus its
children's; the layers' self times plus the roots' own self time
(``unattributed_s``) tile the wall time exactly.  Every boundary is a
synchronous call, so no span is ever held across a simulation ``yield``
(one that was would charge other processes' wall time to it).

The ``sim`` span (:meth:`Environment.run_until_complete`) also reads the
environment's ``events_processed`` and :meth:`Environment.kernel_stats`,
so the report carries the kernel's event count and health gauges.
Layer names, call counts and ``counters`` are deterministic for a
deterministic simulation; only the ``*_s``/``*_us`` wall fields vary.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

__all__ = [
    "Ledger",
    "boundaries",
    "events_per_second",
    "render_ledger",
    "write_ledger_trace",
]

_Span = Tuple[int, int, str, float, float, int]

# Perfetto process id of the wall-time lane (the sim-time trace counts
# pids up from 0), and how many spans an export keeps so the trace file
# stays loadable for long runs.
_WALL_PID = 1000
_MAX_EXPORT_SPANS = 20000

# Counters that need the wrapped call's return value.
_RESULT_COUNTS = {
    "admission.submit": ("admission.rejected", lambda r: r is None),
    "admission.pop": ("dispatch.units", lambda r: r is not None),
    "cache.get": ("cache.hits", lambda r: r is not None),
}


def boundaries() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped layer boundary.

    Resolved per call, so importing :mod:`repro.obs` pulls in no serving
    code.  ``dispatch.select`` wraps every class that defines ``select``
    for a registered dispatch policy.
    """
    from ..core.granularity import GranularityGovernor
    from ..core.history import UtilizationHistory
    from ..core.llp import LoopParallelModel
    from ..core.results import ResultLedger
    from ..serve import (
        BootstopMonitor,
        FrontEnd,
        JobCompiler,
        ResultCache,
        Service,
        ServeStats,
        available_dispatch_policies,
        dag,
    )
    from ..sim.engine import Environment
    from ..sim.trace import Tracer
    from ..workloads.traces import TraceBuilder
    from . import attribution, causal

    selects: List[type] = []
    for info in available_dispatch_policies():
        for klass in type(info.factory()).__mro__:
            if "select" in vars(klass):
                if klass not in selects:
                    selects.append(klass)
                break
    return [
        (Environment, "run_until_complete", "sim"),
        (TraceBuilder, "build", "workloads.trace_build"),
        (GranularityGovernor, "decide", "runtime.decide"),
        (ResultLedger, "record", "runtime.ledger"),
        (LoopParallelModel, "invoke", "llp.invoke"),
        (UtilizationHistory, "llp_decision", "mgps.decide"),
        (JobCompiler, "compile", "compile"),
        (FrontEnd, "submit", "admission.submit"),
        (FrontEnd, "pop_unit", "admission.pop"),
        *[(klass, "select", "dispatch.select") for klass in selects],
        (Service, "result", "serve.result"),
        (ServeStats, "publish", "slo.publish"),
        (ResultCache, "get", "cache.get"),
        (BootstopMonitor, "add", "bootstop.add"),
        (dag, "replicate_tree", "phylo.replicate_tree"),
        (dag, "majority_rule_consensus", "phylo.consensus"),
        (Tracer, "emit", "obs.emit"),
        (causal, "build_job_trees", "obs.causal_build"),
        (attribution, "aggregate_breakdown", "obs.aggregate"),
    ]


class Ledger:
    """Span store for one or more runs; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._counts: Counter = Counter()
        self._kernel: Counter = Counter()  # event-weighted kernel_stats()
        self._stack = [0]
        self._ids = itertools.count(1)

    # -- recording ----------------------------------------------------------
    @contextlib.contextmanager
    def run(self, name: str) -> Iterator["Ledger"]:
        """Wrap every boundary and open one root span for the block."""
        restore = []
        try:
            for owner, attr, span in boundaries():
                fn = getattr(owner, attr)
                restore.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, span))
            sid = next(self._ids)
            self._stack[:] = [sid]
            t0 = perf_counter()
            try:
                yield self
            finally:
                t1 = perf_counter()
                self._stack[:] = [0]
                self.spans.append((sid, 0, name, t0, t1, 0))
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)

    def _wrap(self, fn, name: str):
        spans, stack, ids = self.spans, self._stack, self._ids

        if name == "sim":
            kernel = self._kernel

            def wrapper(env, *args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                before = env.events_processed
                t0 = perf_counter()
                try:
                    return fn(env, *args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    events = env.events_processed - before
                    spans.append((sid, parent, name, t0, t1, events))
                    stats = env.kernel_stats()
                    kernel["events"] += events
                    kernel["pool_hit_rate"] += stats["pool_hit_rate"] * events
                    kernel["batch_advance_fraction"] += (
                        stats["batch_advance_fraction"] * events)
            return wrapper

        counted = _RESULT_COUNTS.get(name)
        counts = self._counts

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, 0))
            if counted is not None and counted[1](out):
                counts[counted[0]] += 1
            return out
        return wrapper

    # -- reporting ----------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Per-layer ``calls``/``total_s``/``self_s``/``p50_us``/``p95_us``.

        ``wall_s`` sums the root spans; ``unattributed_s`` is their own
        self time, so it plus every layer's ``self_s`` equals ``wall_s``.
        """
        child: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, t0, t1, _events in self.spans:
            child[parent] += t1 - t0
        durations: Dict[str, List[float]] = defaultdict(list)
        own: Dict[str, float] = defaultdict(float)
        wall = unattributed = 0.0
        for sid, parent, name, t0, t1, _events in self.spans:
            dur = t1 - t0
            if parent == 0:
                wall += dur
                unattributed += dur - child[sid]
            else:
                durations[name].append(dur)
                own[name] += dur - child[sid]
        layers = {}
        for name in sorted(durations):
            d = sorted(durations[name])
            layers[name] = {
                "calls": len(d),
                "total_s": sum(d),
                "self_s": own[name],
                "p50_us": _percentile(d, 50) * 1e6,
                "p95_us": _percentile(d, 95) * 1e6,
            }
        k = self._kernel
        events = int(k["events"])
        counters: Dict[str, Any] = {
            "sim.events": events,
            "sim.pool_hit_rate": (
                k["pool_hit_rate"] / events if events else 0.0),
            "sim.batch_advance_fraction": (
                k["batch_advance_fraction"] / events if events else 0.0),
            **self._counts,
        }
        return {
            "wall_s": wall,
            "unattributed_s": unattributed,
            "layers": layers,
            "counters": dict(sorted(counters.items())),
            "rates": {
                "events_per_wall_second": events_per_second(
                    events, layers, wall),
            },
        }

    def chrome_events(self) -> List[dict]:
        """Chrome complete ("X") events for the recorded spans.

        Spans land in their own named process so Perfetto shows wall-time
        cost next to the simulated-time trace (see
        :func:`~repro.obs.export.chrome_trace_events`); an export keeps
        the first ``_MAX_EXPORT_SPANS`` spans.
        """
        pid = _WALL_PID
        events: List[dict] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": "wall-time ledger"},
        }]
        if not self.spans:
            return events
        origin = min(span[3] for span in self.spans)
        for _sid, _parent, name, t0, t1, _ in self.spans[:_MAX_EXPORT_SPANS]:
            events.append({
                "name": name, "cat": "wall", "ph": "X",
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": pid, "tid": 0,
            })
        return events


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def events_per_second(
    events: int, layers: Dict[str, Dict[str, Any]], wall_s: float
) -> float:
    """Kernel events per second of the ``sim`` layer's self time.

    Falls back to ``wall_s`` when no ``sim`` span was recorded.
    """
    sim = layers.get("sim")
    denom = sim["self_s"] if sim and sim["self_s"] > 0 else wall_s
    return events / denom if denom > 0 else 0.0


# -- rendering ---------------------------------------------------------------

_SORT_KEYS = {
    "self": lambda row: row[1]["self_s"],
    "total": lambda row: row[1]["total_s"],
    "calls": lambda row: row[1]["calls"],
}


def render_ledger(
    report: Dict[str, Any], *, sort: str = "self", top: int = 20,
    title: str = "",
) -> str:
    """Fixed-width text rendering of a :meth:`Ledger.report` dict."""
    key = _SORT_KEYS.get(sort, _SORT_KEYS["self"])
    rows = sorted(report["layers"].items(), key=key, reverse=True)[:top]
    wall = report["wall_s"]
    rest = report["unattributed_s"]
    lines: List[str] = [title] if title else []
    lines.append(
        f"wall {wall:.3f}s · {report['counters']['sim.events']} events "
        f"· {report['rates']['events_per_wall_second']:,.0f} events/s "
        f"· unattributed {rest * 1e3:.2f} ms "
        f"({rest / wall if wall > 0 else 0.0:.1%})"
    )
    lines.append("")
    lines.append(
        f"{'layer':<32} {'calls':>9} {'total ms':>10} {'self ms':>10} "
        f"{'p50 us':>9} {'p95 us':>9}"
    )
    lines.append("-" * 82)
    for name, row in rows:
        lines.append(
            f"{name:<32} {row['calls']:>9} {row['total_s'] * 1e3:>10.2f} "
            f"{row['self_s'] * 1e3:>10.2f} {row['p50_us']:>9.1f} "
            f"{row['p95_us']:>9.1f}"
        )
    lines.append("")
    lines.append("counters:")
    for name, value in report["counters"].items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        lines.append(f"  {name:<40} {shown:>12}")
    return "\n".join(lines)


def write_ledger_trace(tracer: Any, ledger: Ledger, path: Any) -> str:
    """Write a Chrome trace combining sim-time records and wall spans.

    The simulated-time trace occupies pids from 0 (microseconds of
    simulated time) and the wall-time spans pid 1000 (microseconds of
    wall time); Perfetto renders both in one view.  Returns the path.
    """
    from .export import chrome_trace_events

    events = chrome_trace_events(tracer) if tracer is not None else []
    events.extend(ledger.chrome_events())
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.ledger"},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return str(path)
