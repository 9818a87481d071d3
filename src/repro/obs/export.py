"""Exporters: Chrome/Perfetto trace-event JSON and the JSONL sink.

:func:`chrome_trace` turns recorded :class:`~repro.sim.trace.TraceRecord`
streams into the Chrome trace-event format that https://ui.perfetto.dev
and ``chrome://tracing`` open directly:

* ``task_start``/``task_end`` and ``span_begin``/``span_end`` records
  become paired "B"/"E" duration events (nesting preserved);
* every other record becomes a thread-scoped instant event ("i");
* each (category, actor) pair maps to one named thread, each run to one
  named process — pass ``{"mgps": tracer_a, "edtlp": tracer_b}`` to
  compare schedulers side by side in one view.

Output is deterministic: actors are numbered in sorted order, floats are
rounded to fixed precision and keys are sorted, so exported traces from
identical simulations diff cleanly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Union

from ..sim.trace import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_trace_jsonl",
]

TracerLike = Union[Tracer, Mapping[str, Tracer]]

# Events exported as Chrome duration pairs; everything else is instant.
_PHASE = {
    "task_start": "B",
    "task_end": "E",
    "span_begin": "B",
    "span_end": "E",
}


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _as_map(traces: TracerLike) -> Dict[str, Tracer]:
    if isinstance(traces, Tracer):
        return {"repro": traces}
    return dict(traces)


def chrome_trace_events(traces: TracerLike) -> List[dict]:
    """Flat list of Chrome trace events (metadata first, then records).

    Robust to imperfect inputs: an empty tracer yields only its process
    metadata, payload keys are stringified (JSON objects require string
    keys, and ``sort_keys`` cannot order mixed types), and duration
    events left open by an aborted run are closed with synthetic "E"
    events at the trace's last timestamp so viewers still render them.
    """
    events: List[dict] = []
    for pid, (run_name, tracer) in enumerate(_as_map(traces).items()):
        actors = sorted({(r.category, r.actor) for r in tracer.records})
        tid_of = {key: tid for tid, key in enumerate(actors)}
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": run_name},
        })
        for (category, actor), tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": f"{category}:{actor}"},
            })
        open_stacks: Dict[int, List[str]] = {}
        last_ts = 0.0
        for record in tracer.records:
            args = {str(k): _jsonable(v) for k, v in record.data}
            name = args.pop("name", None) or args.get("function") or record.event
            tid = tid_of[(record.category, record.actor)]
            phase = _PHASE.get(record.event, "i")
            ts = round(record.time * 1e6, 3)  # microseconds
            last_ts = max(last_ts, ts)
            event: Dict[str, Any] = {
                "name": name,
                "cat": record.category,
                "ph": phase,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            }
            if phase == "B":
                open_stacks.setdefault(tid, []).append(name)
            elif phase == "E":
                stack = open_stacks.get(tid)
                if stack:
                    stack.pop()
            if event["ph"] == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = args
            events.append(event)
        for tid in sorted(open_stacks):
            for name in reversed(open_stacks[tid]):
                events.append({
                    "name": name, "cat": "incomplete", "ph": "E",
                    "ts": last_ts, "pid": pid, "tid": tid,
                    "args": {"unterminated": True},
                })
    return events


def chrome_trace(traces: TracerLike) -> Dict[str, Any]:
    """Full Chrome trace-event document (the JSON object form)."""
    return {
        "traceEvents": chrome_trace_events(traces),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs"},
    }


def write_chrome_trace(traces: TracerLike, path) -> str:
    """Write a Perfetto-loadable trace JSON file; returns the path."""
    doc = chrome_trace(traces)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return str(path)


def write_trace_jsonl(tracer: Tracer, path) -> str:
    """Persist raw trace records as JSON Lines; returns the path."""
    with open(path, "w") as fh:
        fh.write(tracer.to_jsonl())
    return str(path)
