"""Execution tracing and interval statistics.

The tracer records typed, timestamped records during a simulation run and
offers utilization/occupancy reductions over them.  It is the data source
for all reported metrics (SPE utilization, PPE occupancy, timelines) and
for the ASCII timelines printed by the examples.

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

__all__ = ["TraceRecord", "Tracer", "Sinks", "tracer_of", "BusyTracker"]

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
    def resolve(cls, tracer: Optional[Tracer] = None, metrics: Any = None,
                base: Optional["Sinks"] = None) -> Optional["Sinks"]:
        """Bundle the live sinks among ``tracer`` and ``metrics``.

        A sink not given falls back to ``base``'s, so a layer handed
        explicit sinks overlays them on its environment's bundle.
        """
        if tracer is None and metrics is None:
            return base
        if base is not None:
            if tracer is None:
                tracer = base.tracer
            if metrics is None:
                metrics = base.metrics
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


class BusyTracker:
    """Accumulates busy time per actor from begin/end marks.

    Used for utilization: each actor (an SPE, a PPE context) marks
    ``begin(actor, t)`` when it starts useful work and ``end(actor, t)``
    when it stops; :meth:`utilization` divides accumulated busy time by a
    window.  Nested begin/end pairs are counted once (re-entrant).
    """

    def __init__(self) -> None:
        self._busy: Dict[str, float] = {}
        self._open: Dict[str, Tuple[int, float]] = {}

    def begin(self, actor: str, time: float) -> None:
        depth, since = self._open.get(actor, (0, time))
        if depth == 0:
            since = time
        self._open[actor] = (depth + 1, since)

    def end(self, actor: str, time: float) -> None:
        if actor not in self._open or self._open[actor][0] == 0:
            raise RuntimeError(f"end() without begin() for actor {actor!r}")
        depth, since = self._open[actor]
        if depth == 1:
            self._busy[actor] = self._busy.get(actor, 0.0) + (time - since)
            del self._open[actor]
        else:
            self._open[actor] = (depth - 1, since)

    def busy_time(self, actor: str, now: Optional[float] = None) -> float:
        """Total busy time, including any currently open interval."""
        total = self._busy.get(actor, 0.0)
        if now is not None and actor in self._open:
            depth, since = self._open[actor]
            if depth > 0:
                total += now - since
        return total

    def actors(self) -> List[str]:
        keys = set(self._busy) | set(self._open)
        return sorted(keys)

    def utilization(self, actor: str, window: float, now: Optional[float] = None) -> float:
        """Fraction of ``window`` the actor was busy (0 if window == 0)."""
        if window <= 0:
            return 0.0
        return self.busy_time(actor, now) / window

    def mean_utilization(
        self, actors: Iterable[str], window: float, now: Optional[float] = None
    ) -> float:
        actors = list(actors)
        if not actors:
            return 0.0
        return sum(self.utilization(a, window, now) for a in actors) / len(actors)
