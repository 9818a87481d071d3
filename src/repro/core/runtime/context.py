"""Process identity and run counters shared by every runtime layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...cell.smt import CoreThread
from ...cell.spe import SPE

__all__ = ["ProcContext", "RuntimeStats"]


@dataclass
class ProcContext:
    """Identity of one MPI process on the machine."""

    rank: int
    cell_id: int
    thread: CoreThread
    pinned_spe: Optional[SPE] = None
    # Cached display labels: built once per process instead of one
    # f-string per off-load on the hot path.
    owner: str = ""       # SPE-ownership label ("p<rank>")
    actor: str = ""       # trace-actor label ("mpi<rank>")
    # Name of the fault-tolerant path's executor process ("exec.p<rank>").
    exec_name: str = field(init=False, default="")

    def __post_init__(self) -> None:
        if not self.owner:
            self.owner = f"p{self.rank}"
        if not self.actor:
            self.actor = f"mpi{self.rank}"
        self.exec_name = f"exec.p{self.rank}"


@dataclass
class RuntimeStats:
    """Counters accumulated by a runtime over one run."""

    offloads: int = 0
    ppe_fallbacks: int = 0
    offload_waits: int = 0
    llp_invocations: int = 0
    llp_mode_switches: int = 0
    code_loads: int = 0
    llp_worker_seconds: float = 0.0
    bootstraps_done: int = 0
    data_hits: int = 0
    data_misses: int = 0
    data_bytes_transferred: int = 0
    # Fault tolerance (all zero on a fault-free run):
    offload_retries: int = 0      # failed SPE attempts that were retried
    retry_fallbacks: int = 0      # tasks that fell back to the PPE after
                                  # exhausting SPE attempts (or losing all SPEs)
    watchdog_timeouts: int = 0    # attempts abandoned by the watchdog
    dma_errors: int = 0           # DMA errors absorbed by MFC re-issues
    llp_recoveries: int = 0       # LLP chunks reclaimed from dead workers
    spe_blacklists: int = 0       # SPEs retired after consecutive failures
