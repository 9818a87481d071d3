"""Execution tracing and interval statistics.

The tracer records typed, timestamped records during a simulation run and
offers utilization/occupancy reductions over them.  It is the data source
for all reported metrics (SPE utilization, PPE occupancy, timelines) and
for the ASCII timelines printed by the examples.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["TraceRecord", "Tracer", "BusyTracker"]


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
    """Collects :class:`TraceRecord` entries.

    Tracing can be disabled (``enabled=False``) for large sweeps; the
    emit call then degenerates to a single attribute check.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def emit(
        self,
        time: float,
        category: str,
        actor: str,
        event: str,
        data: Union[Mapping, Iterable[Tuple[str, Any]], None] = None,
        **kw: Any,
    ) -> None:
        """Record one event.

        The payload may be passed as keyword arguments (the original
        calling convention), as a ``Mapping``, or as a pre-built iterable
        of ``(key, value)`` pairs — the latter two avoid rebuilding a
        kwargs dict at hot call sites.  When both are given, keyword
        arguments are appended after ``data``.
        """
        if not self.enabled:
            return
        if data is None:
            payload = tuple(kw.items())
        else:
            if isinstance(data, Mapping):
                payload = tuple(data.items())
            else:
                payload = tuple(data)
            if kw:
                payload += tuple(kw.items())
        self.records.append(
            TraceRecord(time, category, actor, event, payload)
        )

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
        self.records.clear()

    # -- persistence -------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize all records as JSON Lines (one record per line).

        Payload pair order is preserved; tuple values are stored as JSON
        arrays and restored as tuples by :meth:`from_jsonl`, so a
        round-trip reproduces the original records exactly (lists, which
        never appear in emitted payloads, would also come back as
        tuples).
        """
        lines = []
        for r in self.records:
            lines.append(json.dumps(
                {
                    "t": r.time,
                    "cat": r.category,
                    "actor": r.actor,
                    "event": r.event,
                    "data": [[k, _to_jsonable(v)] for k, v in r.data],
                },
                sort_keys=True,
            ))
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
            payload = tuple((k, _from_jsonable(v)) for k, v in d["data"])
            tracer.records.append(
                TraceRecord(d["t"], d["cat"], d["actor"], d["event"], payload)
            )
        return tracer


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
