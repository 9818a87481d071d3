"""Shared-resource primitives built on the event kernel.

Provides:

* :class:`Resource` — a counted FIFO resource (semaphore) with optional
  priorities, used for SPE pools and bus arbitration.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``,
  used for mailboxes, task queues and MPI channels.
* :class:`Gate` — a broadcast condition that processes can wait on and that
  can be reopened, used for mode-change signalling (e.g. MGPS switching
  between EDTLP and LLP).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .engine import Environment
from .events import Event, URGENT

__all__ = ["Resource", "Request", "Store", "Gate", "Barrier"]


class Request(Event):
    """A pending acquisition of a :class:`Resource`.

    Succeeds when the resource grants a unit.  The holder must call
    :meth:`Resource.release` with this request exactly once when done.
    """

    __slots__ = ("resource", "priority", "cancelled")

    def __init__(self, resource: "Resource", priority: int) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request.

        Granted requests cannot be cancelled — release them instead.
        """
        if self.triggered:
            raise RuntimeError("cannot cancel a granted request; release it")
        self.cancelled = True
        self.resource._forget(self)


class Resource:
    """A counted resource with FIFO (optionally prioritized) granting.

    Lower ``priority`` values are served first; ties break FIFO.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: List[Tuple[int, int, Request]] = []
        self._seq = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted units."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free units."""
        return self.capacity - self._in_use

    def request(self, priority: int = 0) -> Request:
        """Ask for one unit; the returned event fires when granted."""
        req = Request(self, priority)
        self._seq += 1
        heapq.heappush(self._waiting, (priority, self._seq, req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return the unit held by ``request``."""
        if not request.triggered:
            raise RuntimeError("releasing a request that was never granted")
        self._in_use -= 1
        if self._in_use < 0:  # pragma: no cover - internal invariant
            raise RuntimeError("resource released more times than acquired")
        self._grant()

    def _forget(self, request: Request) -> None:
        # Lazy deletion: the heap entry stays but is skipped when popped.
        self._grant()

    def _grant(self) -> None:
        while self._in_use < self.capacity and self._waiting:
            _prio, _seq, req = self._waiting[0]
            if req.cancelled:
                heapq.heappop(self._waiting)
                continue
            heapq.heappop(self._waiting)
            self._in_use += 1
            req.succeed(req, priority=URGENT)


class Store:
    """Unbounded FIFO item queue with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item once one is available.  Items are delivered in put order to
    getters in get order (fair FIFO matching).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting(self) -> int:
        """Number of blocked getters."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: an item or None."""
        return self._items.popleft() if self._items else None


class Gate:
    """A reusable broadcast condition.

    ``wait()`` returns an event that fires at the next ``fire(value)``.
    Unlike a bare event, a gate can fire repeatedly; each ``fire`` releases
    every process that was waiting at that moment.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: List[Event] = []

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        ev = Event(self.env)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; return how many were released."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value, priority=URGENT)
        return len(waiters)


class Barrier:
    """A reusable rendezvous for exactly ``n`` parties.

    ``arrive()`` returns an event that fires once all ``n`` parties of
    the current generation have arrived (the classic BSP barrier).  The
    barrier then resets for the next generation.
    """

    def __init__(self, env: Environment, n: int) -> None:
        if n < 1:
            raise ValueError("barrier needs at least one party")
        self.env = env
        self.n = n
        self._waiting: List[Event] = []
        self.generations = 0

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    def arrive(self) -> Event:
        """Register arrival; the event fires when the generation is full."""
        ev = Event(self.env)
        self._waiting.append(ev)
        if len(self._waiting) == self.n:
            waiters, self._waiting = self._waiting, []
            self.generations += 1
            for w in waiters:
                w.succeed(self.generations, priority=URGENT)
        return ev
