"""Synergistic Processing Element model.

An SPE executes one off-loaded task at a time.  The model tracks the
resident code image (loading a different image costs a DMA of the image
size — the paper's ``t_code``), busy/idle intervals for utilization and
MGPS's history window, and exposes an ``occupy`` helper that scheduler
processes drive.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, Optional, Tuple

from ..sim.engine import Environment
from ..sim.events import Event
from .eib import EIB
from .local_store import CodeImage, LocalStore
from .mfc import MFC
from .params import CellParams

__all__ = ["SPE"]


class SPE:
    """One synergistic processing element."""

    def __init__(
        self,
        env: Environment,
        params: CellParams,
        cell_id: int,
        index: int,
        eib: Optional[EIB] = None,
    ) -> None:
        self.env = env
        self.params = params
        self.cell_id = cell_id
        self.index = index
        self.name = f"cell{cell_id}.spe{index}"
        self.local_store = LocalStore(params.local_store_size)
        self.eib = eib
        self.mfc = MFC(params, eib)
        self.busy = False
        self.owner: Optional[str] = None
        # Busy-book backref (set by CellMachine): mirrors busy/owner
        # transitions into O(1) per-cell / per-owner counts so the
        # runtime's contention and source queries need no SPE scans.
        self._book: Optional[object] = None
        # Fault state: ``alive`` is cleared by a permanent kill,
        # ``blacklisted`` by the tolerance policy after repeated
        # failures.  Either takes the SPE out of service.
        self.alive = True
        self.blacklisted = False
        self.fail_time: Optional[float] = None
        self._busy_since = 0.0
        self.busy_seconds = 0.0
        self.tasks_executed = 0
        self.code_loads = 0
        # LRU-ordered resident data sets (key -> bytes), living in the
        # local store's data space.  Used by memory-aware scheduling.
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self.data_evictions = 0

    # -- code management ---------------------------------------------------
    @property
    def code_image(self) -> Optional[CodeImage]:
        return self.local_store.code_image

    def code_load_time(self, image: CodeImage) -> float:
        """Seconds of DMA needed to make ``image`` resident (0 if cached)."""
        if self.code_image is not None and self.code_image.key == image.key:
            return 0.0
        return self.mfc.transfer_time(image.size)

    def load_code(self, image: CodeImage) -> float:
        """Install ``image``; returns the DMA time that must be paid.

        If the new image does not fit next to the resident data sets,
        least-recently-used data is evicted first (the paper's future
        work: no fixed-size code footprints).  Re-installing the resident
        image object is the paper's t_code = 0 and returns at once.
        """
        if self.local_store.code_image is image:
            return 0.0
        t = self.code_load_time(image)
        while not self.local_store.fits_code(image) and self._resident:
            self._evict_lru()
        moved = self.local_store.load_code(image)
        if moved:
            self.code_loads += 1
        return t

    # -- resident data (memory-aware scheduling) ---------------------------
    @property
    def resident_keys(self) -> Tuple[str, ...]:
        return tuple(self._resident.keys())

    def data_resident(self, key: str) -> bool:
        return key in self._resident

    def _evict_lru(self) -> None:
        key, _ = self._resident.popitem(last=False)
        self.local_store.release(f"data:{key}")
        self.data_evictions += 1

    def load_data(self, key: str, nbytes: int) -> int:
        """Make data set ``key`` resident; returns bytes to DMA (0 = hit).

        Evicts least-recently-used data sets until the new one fits.
        Raises :class:`~repro.cell.local_store.LocalStoreOverflow` if the
        working set alone exceeds the data space.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if key in self._resident:
            self._resident.move_to_end(key)  # refresh LRU position
            return 0
        if nbytes == 0:
            return 0
        while self.local_store.free < nbytes and self._resident:
            self._evict_lru()
        self.local_store.allocate(f"data:{key}", nbytes)
        self._resident[key] = nbytes
        return nbytes

    # -- fault state -------------------------------------------------------
    @property
    def in_service(self) -> bool:
        """True while the SPE can be scheduled (alive, not blacklisted)."""
        return self.alive and not self.blacklisted

    # -- execution ---------------------------------------------------------
    def mark_busy(self, owner: str) -> None:
        if self.busy:
            raise RuntimeError(
                f"{self.name} is already busy (owner {self.owner!r}); "
                f"double-assignment by {owner!r}"
            )
        self.busy = True
        self.owner = owner
        self._busy_since = self.env.now
        if self._book is not None:
            self._book._note_busy(self.cell_id, owner)

    def mark_idle(self) -> None:
        if not self.busy:
            raise RuntimeError(f"{self.name} marked idle while already idle")
        owner, self.owner = self.owner, None
        self.busy = False
        self.busy_seconds += self.env.now - self._busy_since
        if self._book is not None:
            self._book._note_idle(self.cell_id, owner)

    def occupy(self, duration: float, owner: str) -> Generator[Event, None, None]:
        """Generator: hold the SPE busy for ``duration`` seconds.

        Intended for ``yield from`` inside a scheduler process.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.mark_busy(owner)
        try:
            yield self.env.timeout(duration)
            self.tasks_executed += 1
        finally:
            self.mark_idle()

    def utilization(self, window: float) -> float:
        """Fraction of ``window`` this SPE was busy."""
        if window <= 0:
            return 0.0
        busy = self.busy_seconds
        if self.busy:
            busy += self.env.now - self._busy_since
        return busy / window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        if not self.in_service:
            state += " dead" if not self.alive else " blacklisted"
        return f"<SPE {self.name} {state}>"
