"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-based DES architecture (as in
SimPy): an :class:`Event` is a one-shot value holder with a callback list,
an :class:`~repro.sim.engine.Environment` owns the event calendar, and a
:class:`~repro.sim.process.Process` wraps a generator that *yields* events
to wait on them.

Events here are deliberately minimal and allocation-light (``__slots__``)
because scheduler experiments schedule millions of them.  The dominant
waiting pattern is a single waiter (one process blocked on one event), so
callbacks use a single-slot fast path (``_cb0``) and only allocate a list
when a second waiter actually attaches — the common case never touches a
list at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
]

# Scheduling priorities: URGENT events at the same timestamp are processed
# before NORMAL ones.  Used to make resource hand-off deterministic.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through the states *pending* -> *triggered* (scheduled on
    the calendar with a value) -> *processed* (callbacks executed).  An
    event may succeed (``ok``) or fail with an exception; waiting processes
    observe failure as the exception being raised at their ``yield``.

    The first callback lives in the ``_cb0`` slot; ``callbacks`` stays
    ``None`` until a second callback attaches.  ``_processed`` (not the
    callback containers) is the processed-state marker.
    """

    __slots__ = (
        "env", "callbacks", "_cb0", "_value", "_ok", "_scheduled",
        "_processed",
    )

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb0: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._scheduled = False
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the calendar."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise RuntimeError("event has already been triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        Waiting processes see ``exc`` raised at their ``yield`` statement.
        """
        if self._value is not Event._PENDING:
            raise RuntimeError("event has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"{exc!r} is not an exception")
        self._value = exc
        self._ok = False
        self.env._schedule(self, priority)
        return self

    # -- callbacks ------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately;
        this makes waiting race-free regardless of ordering.
        """
        if self._processed:
            fn(self)
        elif self._cb0 is None:
            self._cb0 = fn
        else:
            cbs = self.callbacks
            if cbs is None:
                self.callbacks = [fn]
            else:
                cbs.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> bool:
        """Detach ``fn`` if attached; returns whether it was removed.

        Keeps the invariant that ``_cb0`` is filled whenever any callback
        remains, so ordering is preserved across removals.  Compares with
        ``==`` like ``list.remove``: each ``obj.method`` access builds a
        new bound-method object, so identity would never match one.
        """
        if self._cb0 == fn:
            cbs = self.callbacks
            self._cb0 = cbs.pop(0) if cbs else None
            return True
        cbs = self.callbacks
        if cbs is not None:
            try:
                cbs.remove(fn)
                return True
            except ValueError:
                pass
        return False

    def _process(self) -> None:
        """Invoke callbacks.  Called by the environment main loop."""
        self._processed = True
        cb = self._cb0
        if cb is not None:
            self._cb0 = None
            cb(self)
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            for fn in cbs:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Timeouts are the dominant event class; prefer
    :meth:`~repro.sim.engine.Environment.timeout`, which recycles
    processed instances through a free list instead of allocating.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # ``not >=`` also rejects NaN
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        env._schedule(self, NORMAL, delay)


class _Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events) -> None:
        super().__init__(env)
        self.events = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self):
        return tuple(ev.value for ev in self.events if ev.triggered)

    def _check(self, ev: Event) -> None:
        raise NotImplementedError

    def detach(self) -> None:
        """Stop watching constituents that have not fired yet.

        Long-lived events (fleet death/stop signals) otherwise accumulate
        one stale ``_check`` per composite built on them.
        """
        for ev in self.events:
            if not ev._processed:
                ev.remove_callback(self._check)


class AllOf(_Condition):
    """Succeeds when *all* constituent events have succeeded.

    Fails as soon as any constituent fails (the first failure wins).
    The value is a tuple of all constituent values, in construction order.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(tuple(e.value for e in self.events))


class AnyOf(_Condition):
    """Succeeds when *any* constituent event succeeds.

    The value is the triggering event itself, so the waiter can identify
    which of several awaited events fired first.
    """

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self.succeed(ev)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None
