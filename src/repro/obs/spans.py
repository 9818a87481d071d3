"""Span API: nested, attributed intervals layered on the Tracer.

A *span* is a named interval on one actor's timeline — an off-load from
dispatch to completion, a bootstrap from first to last task.  Spans are
recorded as paired ``span_begin``/``span_end`` :class:`TraceRecord`
entries on the ordinary :class:`~repro.sim.trace.Tracer`, so they ride
the existing trace infrastructure (filtering, JSONL persistence) and
export to Chrome/Perfetto "B"/"E" events with correct nesting.

Usage::

    spans = SpanRecorder(tracer, env)          # env supplies .now
    with spans.span("proc", "mpi0", "offload") as sp:
        ...
        sp.set(function=task.function)         # per-span attributes

Cost discipline: a recorder given no tracer, or a disabled one, keeps
``tracer = None``, and :meth:`SpanRecorder.span` is then a single check
returning a shared no-op span — no object allocation, no time read.
Keyword attributes at the call site still build a dict on that path, so
hot paths attach them with :meth:`Span.set` under the layer's own
``tracer is not None`` guard.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from ..sim.trace import Tracer

__all__ = ["Span", "SpanRecorder", "NULL_SPAN"]


class Span:
    """One open interval; use as a context manager."""

    __slots__ = ("_recorder", "category", "actor", "name", "_attrs", "start")

    def __init__(
        self, recorder: "SpanRecorder", category: str, actor: str,
        name: str, attrs: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.category = category
        self.actor = actor
        self.name = name
        self._attrs = attrs
        self.start = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; they appear on the ``span_end`` record."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        rec = self._recorder
        self.start = rec.clock()
        depth = rec._depth.get(self.actor, 0)
        rec._depth[self.actor] = depth + 1
        rec.tracer.emit(
            self.start, self.category, self.actor, "span_begin",
            name=self.name, depth=depth,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._recorder
        depth = rec._depth.get(self.actor, 1) - 1
        if depth:
            rec._depth[self.actor] = depth
        else:
            rec._depth.pop(self.actor, None)
        payload: Dict[str, Any] = {"name": self.name, "depth": depth}
        if exc_type is not None:
            payload["error"] = exc_type.__name__
        payload.update(self._attrs)
        rec.tracer.emit(
            rec.clock(), self.category, self.actor, "span_end", **payload
        )
        return False


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()
    start = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Binds a tracer to a clock and tracks per-actor nesting depth.

    ``clock`` is either a zero-argument callable returning the current
    time or an object with a ``now`` attribute (an
    :class:`~repro.sim.engine.Environment`).
    """

    __slots__ = ("tracer", "clock", "_depth")

    def __init__(self, tracer: Optional[Tracer],
                 clock: Union[Callable[[], float], Any]) -> None:
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        if callable(clock):
            self.clock = clock
        else:
            self.clock = lambda: clock.now
        self._depth: Dict[str, int] = {}

    def span(self, category: str, actor: str, name: str, **attrs: Any):
        """Open a span; returns :data:`NULL_SPAN` when tracing is off."""
        if self.tracer is None:
            return NULL_SPAN
        return Span(self, category, actor, name, attrs)
