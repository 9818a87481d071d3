"""The simulation environment: clock, calendar queue and run loop.

The calendar is a three-tier structure instead of one flat binary heap:

* ``_immediate`` — a FIFO deque of URGENT zero-delay events.  URGENT
  events are only ever scheduled *at* the current timestamp (resource
  hand-off, process resume), so FIFO order at the head of the calendar
  is exactly the ``(time, URGENT, seq)`` order the old heap produced —
  without a tuple, a sequence number, or a heap operation.
* ``_deferred`` — a FIFO deque of NORMAL zero-delay events, tagged with
  their ``seq`` so they interleave correctly with heap entries that land
  on the same timestamp.
* ``_near``/``_far`` — the timed calendar, split at a moving ``_horizon``:
  ``_near`` is a small heap of the soonest entries, ``_far`` the overflow
  heap.  When ``_near`` drains, a batch of the soonest ``_far`` entries
  refills it (ties across the boundary move together, so the seam can
  never split equal timestamps).  Steady-state enqueue/dequeue touches
  only the small near heap.

``seq`` is a monotonically increasing tie-breaker so events at equal
timestamps are processed in schedule order, which makes every simulation
fully deterministic.  Immediate events do not consume sequence numbers;
removing a shared counter burn cannot change the relative order of the
remaining entries.

The run loops (``run`` / ``run_until_complete``) inline event dispatch
and recycle processed :class:`Timeout` objects through a free list (see
:meth:`Environment.timeout`); a ``sys.getrefcount`` guard means an
instance is only reincarnated once nothing else references it, so
pooling can never change an observable value.  Both loops share one ``peek()``-guarded drain
(:meth:`Environment._advance_until`) for same-timestamp completion.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from sys import getrefcount
from collections import deque
from typing import Any, Dict, Generator, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, Timeout, NORMAL, URGENT
from .process import Process
from .trace import Sinks

__all__ = ["Environment", "EmptySchedule"]

_INF = float("inf")
_PENDING = Event._PENDING

# Calendar-queue tuning: how many far-heap entries one refill promotes
# into the near heap (plus boundary ties), how many processed Timeouts
# the free list retains, and how many refill occupancy samples are kept
# for the ``near_occupancy_p95`` kernel gauge.
_NEAR_BATCH = 64
_POOL_CAP = 256
_OCC_CAP = 4096


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when the calendar is empty."""


class Environment:
    """Owns simulated time and drives event processing.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).
    strict:
        If True (default), an exception escaping a process propagates out
        of :meth:`run` immediately — the right behaviour for tests.  If
        False, the process fails as an event and waiters see the error.
    tracer / metrics:
        Optional observability sinks, resolved once into
        :attr:`sinks` (a :class:`~repro.sim.trace.Sinks` bundle, or
        ``None`` when both are off or disabled) so every component of a
        run (machine, runtime, serving layer) reads the same bundle
        instead of threading and re-checking each sink.  Neither
        influences event ordering.
    """

    __slots__ = (
        "_now", "_seq", "_active_process", "strict", "sinks",
        "events_processed",
        "_immediate", "_deferred", "_near", "_far", "_horizon",
        "_timeout_pool", "_pool_hits", "_pool_misses",
        "_immediate_pops", "_deferred_pops", "_refills", "_occupancy",
        "_batched_events",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        strict: bool = True,
        *,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.strict = strict
        self.sinks = Sinks.resolve(tracer, metrics)
        self.events_processed = 0
        # Calendar tiers.
        self._immediate: deque = deque()
        self._deferred: deque = deque()
        self._near: List[Tuple[float, int, int, Event]] = []
        self._far: List[Tuple[float, int, int, Event]] = []
        self._horizon = self._now
        # Timeout free list + kernel health tallies.
        self._timeout_pool: deque = deque()
        self._pool_hits = 0
        self._pool_misses = 0
        self._immediate_pops = 0
        self._deferred_pops = 0
        self._refills = 0
        self._occupancy: List[int] = []
        self._batched_events = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        Recycles a processed :class:`Timeout` from the free list when one
        exists and nothing else still references it (``getrefcount`` is 2:
        the free-list pop and the argument binding).  A recycled instance
        is fully re-initialized, so reincarnation never leaks a value or
        callback between lives; reuse also cannot affect event ordering,
        which depends only on ``(time, priority, seq)``.
        """
        pool = self._timeout_pool
        tries = len(pool)
        if tries > 3:
            tries = 3
        while tries:
            tries -= 1
            t = pool.popleft()
            if getrefcount(t) == 2:
                if delay < 0:
                    pool.appendleft(t)
                    raise ValueError(f"negative delay {delay!r}")
                t.delay = delay
                t._value = value
                t._ok = True
                t._scheduled = True
                t._processed = False
                t._cb0 = None
                t.callbacks = None
                self._pool_hits += 1
                # Inlined ``_schedule(t, NORMAL, delay)``.
                self._seq += 1
                if delay == 0.0:
                    self._deferred.append((self._seq, t))
                else:
                    at = self._now + delay
                    if at <= self._horizon:
                        heappush(self._near, (at, NORMAL, self._seq, t))
                    else:
                        heappush(self._far, (at, NORMAL, self._seq, t))
                return t
            # Still referenced from a previous life (e.g. a pending
            # composite holds it) — retry once the reference drops.
            pool.append(t)
        self._pool_misses += 1
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        if event._scheduled:  # pragma: no cover - internal invariant
            raise RuntimeError("event is already scheduled")
        event._scheduled = True
        if delay == 0.0:
            if priority == URGENT:
                self._immediate.append(event)
            else:
                self._seq += 1
                self._deferred.append((self._seq, event))
        else:
            self._seq += 1
            t = self._now + delay
            entry = (t, priority, self._seq, event)
            if t <= self._horizon:
                heappush(self._near, entry)
            else:
                heappush(self._far, entry)

    def _refill(self) -> None:
        """Promote the soonest far-heap batch into the empty near heap.

        Entries leave the far heap in ascending order, and an ascending
        list satisfies the heap invariant, so the batch *is* the new near
        heap.  The boundary extends through ties: every far entry at the
        new horizon timestamp moves too, so equal timestamps can never
        straddle the seam (and ``_horizon`` only ever grows — a far entry
        is always strictly beyond it).
        """
        far = self._far
        near = self._near
        n = _NEAR_BATCH if len(far) > _NEAR_BATCH else len(far)
        for _ in range(n):
            near.append(heappop(far))
        limit = near[-1][0]
        while far and far[0][0] <= limit:
            near.append(heappop(far))
        self._horizon = limit
        self._refills += 1
        occ = self._occupancy
        if len(occ) < _OCC_CAP:
            occ.append(len(near))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._immediate or self._deferred:
            return self._now
        if self._near:
            return self._near[0][0]
        if self._far:
            return self._far[0][0]
        return _INF

    def _has_events(self) -> bool:
        return bool(
            self._immediate or self._deferred or self._near or self._far
        )

    def _pop_next(self) -> Event:
        """Remove and return the next event, advancing the clock to it."""
        imm = self._immediate
        if imm:
            self._immediate_pops += 1
            return imm.popleft()
        near = self._near
        if not near and self._far:
            self._refill()
        dfr = self._deferred
        if dfr:
            if near:
                head = near[0]
                # A heap entry beats the deferred head only on the same
                # timestamp with higher priority or an earlier seq.
                if head[0] == self._now and (
                    head[1] == URGENT or head[2] < dfr[0][0]
                ):
                    return heappop(near)[3]
            self._deferred_pops += 1
            return dfr.popleft()[1]
        if not near:
            raise EmptySchedule()
        entry = heappop(near)
        self._now = entry[0]
        return entry[3]

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        event = self._pop_next()
        self.events_processed += 1
        event._process()
        # Recycle like the inlined loops do.
        if type(event) is Timeout and len(self._timeout_pool) < _POOL_CAP:
            self._timeout_pool.append(event)

    # -- run loops ----------------------------------------------------------
    def _advance_until(self, limit: float) -> None:
        """Process every event due at or before ``limit``.

        The single ``peek()``-guarded loop shared by :meth:`run` and
        :meth:`run_until_complete`'s same-timestamp drain, with dispatch
        and Timeout recycling inlined.
        """
        imm = self._immediate
        dfr = self._deferred
        pool = self._timeout_pool
        processed = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if imm:
                    self._immediate_pops += 1
                    ev = imm.popleft()
                else:
                    near = self._near
                    if not near and self._far:
                        self._refill()
                        near = self._near
                    if dfr:
                        if near:
                            head = near[0]
                            if head[0] == self._now and (
                                head[1] == URGENT or head[2] < dfr[0][0]
                            ):
                                ev = heappop(near)[3]
                            else:
                                self._deferred_pops += 1
                                ev = dfr.popleft()[1]
                        else:
                            self._deferred_pops += 1
                            ev = dfr.popleft()[1]
                    elif near:
                        t = near[0][0]
                        if t > limit:
                            break
                        self._now = t
                        ev = heappop(near)[3]
                    else:
                        break
                processed += 1
                # Inlined Event._process (no subclass overrides it).
                ev._processed = True
                cb = ev._cb0
                if cb is not None:
                    ev._cb0 = None
                    cb(ev)
                cbs = ev.callbacks
                if cbs is not None:
                    ev.callbacks = None
                    for fn in cbs:
                        fn(ev)
                if type(ev) is Timeout and len(pool) < _POOL_CAP:
                    pool.append(ev)
        finally:
            self.events_processed += processed
            self._batched_events += processed
            if gc_was_enabled:
                gc.enable()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the calendar drains or the clock reaches ``until``.

        Returns the final simulation time.
        """
        if until is None:
            self._advance_until(_INF)
            return self._now
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        self._advance_until(until)
        if until > self._now and self._has_events():
            # Events remain beyond the limit: clamp the clock to it.
            self._now = until
        return self._now

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` finishes; return its value.

        Raises the process's exception if it failed (requires
        ``strict=False`` for the failure to be captured as an event).
        The dispatch loop is the one in :meth:`_advance_until` with a
        completion stop check in place of the time limit.
        """
        imm = self._immediate
        dfr = self._deferred
        pool = self._timeout_pool
        processed = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while process._value is _PENDING:
                if imm:
                    self._immediate_pops += 1
                    ev = imm.popleft()
                else:
                    near = self._near
                    if not near and self._far:
                        self._refill()
                        near = self._near
                    if dfr:
                        if near:
                            head = near[0]
                            if head[0] == self._now and (
                                head[1] == URGENT or head[2] < dfr[0][0]
                            ):
                                ev = heappop(near)[3]
                            else:
                                self._deferred_pops += 1
                                ev = dfr.popleft()[1]
                        else:
                            self._deferred_pops += 1
                            ev = dfr.popleft()[1]
                    elif near:
                        entry = heappop(near)
                        self._now = entry[0]
                        ev = entry[3]
                    else:
                        self._deadlock(process)
                processed += 1
                ev._processed = True
                cb = ev._cb0
                if cb is not None:
                    ev._cb0 = None
                    cb(ev)
                cbs = ev.callbacks
                if cbs is not None:
                    ev.callbacks = None
                    for fn in cbs:
                        fn(ev)
                if type(ev) is Timeout and len(pool) < _POOL_CAP:
                    pool.append(ev)
        finally:
            self.events_processed += processed
            self._batched_events += processed
            if gc_was_enabled:
                gc.enable()
        # Drain same-timestamp bookkeeping so callbacks fire — the same
        # peek()-guarded loop run(until=...) uses.
        self._advance_until(self._now)
        if not process._ok:
            raise process._value
        return process._value

    def _deadlock(self, process: Any) -> None:
        name = getattr(process, "name", type(process).__name__)
        raise RuntimeError(
            f"deadlock: calendar empty but {name!r} not finished"
        )

    # -- kernel health -------------------------------------------------------
    def kernel_stats(self) -> Dict[str, float]:
        """Deterministic health gauges for the calendar queue and pools.

        Fed into the ``run.kernel.*`` metrics so ``repro stats --fail-on``
        and the report's perf lane can watch kernel behaviour.
        """
        events = self.events_processed
        heap_events = events - self._immediate_pops - self._deferred_pops
        allocs = self._pool_hits + self._pool_misses
        occ = sorted(self._occupancy)
        if occ:
            p95 = occ[min(len(occ) - 1, int(0.95 * len(occ)))]
        else:
            p95 = 0
        return {
            "events": float(events),
            "immediate_events": float(self._immediate_pops),
            "deferred_events": float(self._deferred_pops),
            "heap_events": float(heap_events),
            "calendar_refills": float(self._refills),
            "near_occupancy_p95": float(p95),
            "pool_hit_rate": (
                self._pool_hits / allocs if allocs else 0.0
            ),
            "batch_advance_fraction": (
                self._batched_events / events if events else 0.0
            ),
        }
