"""Shared-resource primitives built on the event kernel.

Provides:

* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``,
  used for mailboxes, task queues and the master-worker dispenser.
* :class:`Barrier` — a reusable rendezvous of ``n`` parties, used for BSP
  supersteps.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .engine import Environment
from .events import Event, URGENT

__all__ = ["Store", "Barrier"]


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
