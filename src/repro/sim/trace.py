"""Execution tracing.

The tracer records typed, timestamped records during a simulation run.
It is the data source for the timelines, reports and exported traces,
including the ASCII timelines printed by the examples.

:class:`Sinks` bundles a run's live tracer and metrics registry.  It is
resolved once, when the :class:`~repro.sim.engine.Environment` is built,
and is ``None`` when every sink is off, so each layer tests one
reference for the whole observability fan-out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union,
)

__all__ = ["TraceRecord", "Tracer", "Sinks", "tracer_of"]

# One raw trace entry: (time, category, actor, event, payload dict).
Row = Tuple[float, str, str, str, Dict[Any, Any]]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: time, category, actor, event name, payload."""

    time: float
    category: str
    actor: str
    event: str
    data: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.data:
            if k == key:
                return v
        return default


class Tracer:
    """Collects trace entries.

    :meth:`emit` appends one plain ``(time, category, actor, event,
    payload)`` tuple to :attr:`rows`; single-pass consumers such as the
    causal fold read those tuples directly.  :attr:`records` presents the
    same entries as :class:`TraceRecord` views, built the first time each
    entry is read, so exporters and reports see the records they always
    did.  Tracing can be disabled (``enabled=False``) for large sweeps;
    the emit call then degenerates to a single attribute check.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: List[Row] = []
        self._views: List[TraceRecord] = []

    def emit(self, time: float, category: str, actor: str, event: str,
             **payload: Any) -> None:
        """Record one event; keyword arguments are its payload."""
        if self.enabled:
            self.rows.append((time, category, actor, event, payload))

    @property
    def records(self) -> List[TraceRecord]:
        """Every entry so far as a :class:`TraceRecord` (read-only)."""
        views, rows = self._views, self.rows
        if len(views) < len(rows):
            views.extend(
                TraceRecord(t, c, a, e, tuple(p.items()))
                for t, c, a, e, p in islice(rows, len(views), None)
            )
        return views

    def filter(
        self,
        category: Optional[str] = None,
        actor: Optional[str] = None,
        event: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Records matching every given criterion."""
        out = self.records
        if category is not None:
            out = [r for r in out if r.category == category]
        if actor is not None:
            out = [r for r in out if r.actor == actor]
        if event is not None:
            out = [r for r in out if r.event == event]
        return list(out)

    def clear(self) -> None:
        self.rows.clear()
        self._views.clear()

    # -- persistence -------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize all records as JSON Lines (one record per line).

        Payload pair order is preserved; tuple values are stored as JSON
        arrays and restored as tuples by :meth:`from_jsonl`, so a
        round-trip reproduces the original records exactly (lists, which
        never appear in emitted payloads, would also come back as
        tuples).
        """
        lines = [
            json.dumps(
                {
                    "t": t,
                    "cat": c,
                    "actor": a,
                    "event": e,
                    "data": [[k, _to_jsonable(v)] for k, v in p.items()],
                },
                sort_keys=True,
            )
            for t, c, a, e, p in self.rows
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: Union[str, Iterable[str]]) -> "Tracer":
        """Rebuild a tracer from :meth:`to_jsonl` output."""
        tracer = cls(enabled=True)
        lines = text.splitlines() if isinstance(text, str) else text
        for line in lines:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            payload = {k: _from_jsonable(v) for k, v in d["data"]}
            tracer.rows.append(
                (d["t"], d["cat"], d["actor"], d["event"], payload)
            )
        return tracer


class Sinks(NamedTuple):
    """A run's live observability sinks, resolved once.

    ``tracer`` is an enabled :class:`Tracer` or None; ``metrics`` a
    recording :class:`~repro.obs.metrics.MetricsRegistry` or None.  Build
    bundles with :meth:`resolve`, which returns None instead of a bundle
    when every sink is off (a disabled tracer and the null registry
    count as off).
    """

    tracer: Optional[Tracer]
    metrics: Any

    @classmethod
    def resolve(cls, tracer: Optional[Tracer] = None,
                metrics: Any = None) -> Optional["Sinks"]:
        """Bundle the live sinks among ``tracer`` and ``metrics``."""
        if tracer is not None and not tracer.enabled:
            tracer = None
        if metrics is not None and not metrics.enabled:
            metrics = None
        if tracer is None and metrics is None:
            return None
        return cls(tracer, metrics)


def tracer_of(sinks: Optional[Sinks]) -> Optional[Tracer]:
    """The bundle's tracer, or None when tracing is off."""
    return None if sinks is None else sinks.tracer


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(v) for v in value]
    return value


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_from_jsonable(v) for v in value)
    return value
