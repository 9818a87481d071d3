"""The assembled Cell machine: PPE cores, SPE pool, interconnect.

A :class:`CellMachine` wires together one or more Cell processors on a
blade: per-Cell SMT PPE cores, per-Cell EIBs, and a shared :class:`SPEPool`
from which schedulers acquire SPEs.  Signal latencies between a PPE and an
SPE (and between SPEs) account for the cross-Cell penalty on dual-Cell
blades.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.engine import Environment
from ..sim.events import Event, URGENT
from .eib import EIB
from .params import BladeParams, CellParams
from .smt import SMTCore
from .spe import SPE

__all__ = ["CellMachine", "SPEPool"]


class SPEPool:
    """Free-list of SPEs with FIFO waiting.

    ``acquire`` returns an event that fires with an SPE; ``try_acquire``
    and ``try_acquire_many`` are the non-blocking variants used by the LLP
    runtime when it opportunistically grabs idle SPEs for loop workers.
    """

    def __init__(self, env: Environment, spes: List[SPE]) -> None:
        self.env = env
        self._free: List[SPE] = list(spes)
        self._all = list(spes)
        self._waiters: Deque[Tuple[Event, Optional[int]]] = deque()
        self._n_out = 0  # SPEs permanently out of service (dead/blacklisted)

    @property
    def n_free(self) -> int:
        return len(self._free)

    @property
    def n_live(self) -> int:
        """SPEs still in service (not dead, not blacklisted)."""
        return len(self._all) - self._n_out

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)

    def _pick(self, prefer_cell: Optional[int]) -> SPE:
        """Remove and return a free SPE, preferring ``prefer_cell``.

        The free list is used LIFO: the most recently released SPE is
        handed out first, so resident code images stay hot (t_code = 0
        for repeat off-loads of the same functions).
        """
        if prefer_cell is not None:
            for i in range(len(self._free) - 1, -1, -1):
                if self._free[i].cell_id == prefer_cell:
                    return self._free.pop(i)
        return self._free.pop()

    def acquire(self, prefer_cell: Optional[int] = None) -> Event:
        """Blocking acquire: the event fires with an :class:`SPE`.

        When no SPE remains in service (every SPE dead or blacklisted)
        the event fires immediately with ``None`` instead of blocking
        forever — fault-tolerant callers fall back to the PPE.
        """
        ev = Event(self.env)
        if self._free:
            ev.succeed(self._pick(prefer_cell), priority=URGENT)
        elif self.n_live == 0:
            ev.succeed(None, priority=URGENT)
        else:
            self._waiters.append((ev, prefer_cell))
        return ev

    def try_acquire(self, prefer_cell: Optional[int] = None) -> Optional[SPE]:
        """Non-blocking acquire; None if no SPE is free."""
        if not self._free:
            return None
        return self._pick(prefer_cell)

    def try_acquire_where(self, predicate) -> Optional[SPE]:
        """Non-blocking acquire of a free SPE satisfying ``predicate``.

        Scans newest-first (LIFO, matching :meth:`_pick`); None when no
        free SPE qualifies.  Used by locality-aware scheduling to find an
        SPE whose local store already holds a task's data set.
        """
        for i in range(len(self._free) - 1, -1, -1):
            if predicate(self._free[i]):
                return self._free.pop(i)
        return None

    def try_acquire_best(self, score) -> Optional[SPE]:
        """Non-blocking acquire of the free SPE maximizing ``score(spe)``.

        Ties break newest-first.  Locality-aware scheduling uses this on
        a residency miss to place the data set on the store with the most
        free space, spreading working sets across SPEs instead of
        thrashing one store.
        """
        if not self._free:
            return None
        best_i = max(
            range(len(self._free)),
            key=lambda i: (score(self._free[i]), i),
        )
        return self._free.pop(best_i)

    def try_acquire_many(
        self, k: int, prefer_cell: Optional[int] = None
    ) -> List[SPE]:
        """Grab up to ``k`` free SPEs (possibly fewer, never blocking)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        out: List[SPE] = []
        while len(out) < k and self._free:
            out.append(self._pick(prefer_cell))
        return out

    def release(self, spe: SPE) -> None:
        """Return an SPE to the pool, waking the oldest waiter if any.

        An SPE that left service while busy (killed or blacklisted
        mid-task) is dropped rather than recirculated; if that drop
        leaves the pool with zero live SPEs, every blocked waiter is
        woken with ``None`` so processes can fall back to the PPE
        instead of deadlocking.
        """
        if spe in self._free:
            raise RuntimeError(f"{spe.name} released twice")
        if not spe.in_service:
            self._fail_stranded_waiters()
            return
        if self._waiters:
            ev, prefer = self._waiters.popleft()
            ev.succeed(spe, priority=URGENT)
        else:
            self._free.append(spe)

    def mark_out_of_service(self, spe: SPE) -> None:
        """Remove a dead/blacklisted SPE from circulation.

        The caller must already have cleared :attr:`SPE.in_service`
        (via ``alive`` or ``blacklisted``).  Idempotent per SPE: a kill
        following a blacklist (or vice versa) is counted once.
        """
        if spe.in_service:
            raise RuntimeError(
                f"{spe.name} is still in service; clear alive/blacklisted "
                f"before retiring it from the pool"
            )
        if spe not in self._all:
            raise RuntimeError(f"{spe.name} does not belong to this pool")
        if getattr(spe, "_pool_retired", False):
            return
        spe._pool_retired = True
        self._n_out += 1
        if spe in self._free:
            self._free.remove(spe)
        self._fail_stranded_waiters()

    def _fail_stranded_waiters(self) -> None:
        """Wake all waiters with ``None`` once no live SPE can ever serve."""
        if self.n_live > 0:
            return
        while self._waiters:
            ev, _prefer = self._waiters.popleft()
            ev.succeed(None, priority=URGENT)


class CellMachine:
    """One blade: ``n_cells`` Cell processors sharing XDR memory."""

    def __init__(self, env: Environment, params: Optional[BladeParams] = None) -> None:
        self.env = env
        self.params = params or BladeParams()
        cell = self.params.cell
        self.cores: List[SMTCore] = [
            SMTCore(
                env,
                n_contexts=cell.ppe_smt_contexts,
                smt_efficiency=cell.smt_efficiency,
                spin_contention=cell.spin_contention,
                quantum=cell.os_quantum,
                switch_cost=cell.context_switch,
                name=f"cell{c}.ppe",
            )
            for c in range(self.params.n_cells)
        ]
        self.eibs: List[EIB] = [
            EIB(cell) for _ in range(self.params.n_cells)
        ]
        self.spes: List[SPE] = []
        # Busy-book: incremental counts maintained by SPE.mark_busy /
        # mark_idle so contention and task-source queries are O(1)
        # instead of scanning every SPE per off-load.
        self._busy_by_cell: List[int] = [0] * self.params.n_cells
        self._busy_cell_owner: Dict[Tuple[int, str], int] = {}
        self._busy_owners: Dict[str, int] = {}
        for c in range(self.params.n_cells):
            for i in range(cell.n_spes):
                spe = SPE(env, cell, c, i, eib=self.eibs[c])
                spe._book = self
                self.spes.append(spe)
        self.pool = SPEPool(env, self.spes)

    # -- busy-book ------------------------------------------------------------
    def _note_busy(self, cell_id: int, owner: Optional[str]) -> None:
        self._busy_by_cell[cell_id] += 1
        if owner:
            key = (cell_id, owner)
            bco = self._busy_cell_owner
            bco[key] = bco.get(key, 0) + 1
            bo = self._busy_owners
            bo[owner] = bo.get(owner, 0) + 1

    def _note_idle(self, cell_id: int, owner: Optional[str]) -> None:
        self._busy_by_cell[cell_id] -= 1
        if owner:
            key = (cell_id, owner)
            bco = self._busy_cell_owner
            n = bco[key] - 1
            if n:
                bco[key] = n
            else:
                del bco[key]
            bo = self._busy_owners
            n = bo[owner] - 1
            if n:
                bo[owner] = n
            else:
                del bo[owner]

    def busy_others(self, cell_id: int, owner: str) -> int:
        """Busy SPEs on ``cell_id`` owned by someone other than ``owner``.

        Equivalent to scanning ``self.spes`` for
        ``s.busy and s.cell_id == cell_id and s.owner != owner`` — the
        memory-contention term of every off-load — in O(1).
        """
        return self._busy_by_cell[cell_id] - self._busy_cell_owner.get(
            (cell_id, owner), 0
        )

    @property
    def n_busy_owners(self) -> int:
        """Distinct owners of busy SPEs right now (O(1))."""
        return len(self._busy_owners)

    @property
    def cell_params(self) -> CellParams:
        return self.params.cell

    @property
    def n_spes(self) -> int:
        return len(self.spes)

    # -- latencies -----------------------------------------------------------
    def signal_latency(self, cell_id: int, spe: SPE) -> float:
        """One-way PPE(cell_id) <-> SPE signal latency."""
        t = self.cell_params.ppe_spe_signal
        if spe.cell_id != cell_id:
            t += self.params.cross_cell_signal_penalty
        return t

    def spe_signal_latency(self, a: SPE, b: SPE) -> float:
        """One-way SPE->SPE signal (``mfc_put`` of a Pass structure)."""
        t = self.cell_params.spe_spe_signal
        if a.cell_id != b.cell_id:
            t += self.params.cross_cell_signal_penalty
        return t

    # -- metrics --------------------------------------------------------------
    def spe_utilization(self, window: float) -> float:
        """Mean SPE utilization over ``window`` seconds."""
        if not self.spes:
            return 0.0
        return sum(s.utilization(window) for s in self.spes) / len(self.spes)

    def core_for(self, index: int) -> SMTCore:
        """The PPE core an MPI process with the given index runs on.

        Processes are distributed round-robin across the blade's Cells,
        matching how the paper spreads MPI ranks over the two PPEs.
        """
        return self.cores[index % len(self.cores)]
