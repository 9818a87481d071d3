"""Master-worker distribution of bootstraps (Section 3.1).

Every real-world RAxML analysis is a bag of independent tree searches
(multiple inferences + bootstraps) farmed out by a master.  Here the
master is a work dispenser: workers pull the next bootstrap index when
idle, which is exactly the dynamic self-scheduling the MPI version uses.
The dispenser is also where MGPS's "T waiting tasks" signal originates:
as the bag drains, fewer processes stay active and LLP becomes worthwhile.
"""

from __future__ import annotations

from ..sim.engine import Environment
from ..sim.resources import Store

__all__ = ["WorkDispenser"]


class WorkDispenser:
    """A bag of bootstrap indices plus per-worker stop sentinels."""

    def __init__(self, env: Environment, n_items: int, n_workers: int) -> None:
        if n_items < 1:
            raise ValueError("need at least one work item")
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.env = env
        self.n_items = n_items
        self.n_workers = n_workers
        self._store = Store(env)
        for i in range(n_items):
            self._store.put(i)
        for _ in range(n_workers):
            self._store.put(None)  # one stop sentinel per worker
        self.items_dispensed = 0

    def get(self):
        """Event yielding the next bootstrap index, or None to stop."""
        ev = self._store.get()

        def _count(e):
            if e.value is not None:
                self.items_dispensed += 1

        ev.add_callback(_count)
        return ev
