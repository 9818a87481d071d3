"""Machine parameters of the simulated Cell Broadband Engine.

All constants carry the values documented for the 3.2 GHz Cell blade used
in the paper (Section 4 and Section 5.2), or calibrated values derived
from timings the paper reports (e.g. the 1.5 us PPE context switch, the
O(10 ms) Linux time quantum).  Everything is a frozen dataclass so a
parameter set can be hashed, compared and swept in ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..validation import require_finite

__all__ = ["CellParams", "BladeParams", "DEFAULT_CELL", "DEFAULT_BLADE"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024
US = 1e-6
MS = 1e-3


# The latencies and overheads a Cell may set to zero, and the bandwidths
# it divides by; ``os_quantum`` must be positive too.
_CELL_TIMES = (
    "context_switch", "ppe_spe_signal", "spe_spe_signal",
    "dispatch_overhead", "completion_overhead", "dma_startup",
)
_CELL_BANDWIDTHS = ("spe_dma_bandwidth", "eib_bandwidth", "memory_bandwidth")


@dataclass(frozen=True)
class CellParams:
    """Parameters of a single Cell BE processor.

    Attributes
    ----------
    clock_hz:
        Core clock of PPE and SPEs (3.2 GHz on the paper's blade).
    n_spes:
        Number of Synergistic Processing Elements.
    ppe_smt_contexts:
        Hardware threads on the PPE (dual-thread SMT).
    smt_efficiency:
        Per-context speed factor when both SMT contexts are busy.  With one
        busy context speed is 1.0; with two, each runs at this fraction
        (so combined throughput is ``2 * smt_efficiency``).  Calibrated so
        the EDTLP curve of Table 1 is reproduced.
    os_quantum:
        OS scheduler time quantum, seconds.  The paper notes the Linux
        quantum is "a multiple of 10 ms"; we use 10 ms.
    context_switch:
        PPE context-switch cost, seconds (1.5 us, Section 5.2).
    ppe_spe_signal:
        One-way PPE->SPE (or SPE->PPE) signal/mailbox latency, seconds.
        This is the paper's ``t_comm``.
    spe_spe_signal:
        SPE->SPE latency for an ``mfc_put`` of a ``Pass`` structure.
    dispatch_overhead:
        PPE time spent by the user-level scheduler per off-load (finding an
        idle SPE, writing the task descriptor), seconds.
    completion_overhead:
        PPE time spent handling an off-load completion (receiving the SPE
        signal, unblocking the MPI process), seconds.
    dma_startup:
        Fixed initiation latency per DMA request, seconds.
    dma_max_request:
        Maximum bytes a single DMA request may move (16 KB).
    dma_alignment:
        Required alignment of DMA transfers in bytes (128-bit = 16 B).
    dma_list_max:
        Maximum number of requests in a DMA list (2048).
    spe_dma_bandwidth:
        Peak bandwidth of one SPE's MFC, bytes/second.
    eib_bandwidth:
        Aggregate EIB bandwidth, bytes/second (204.8 GB/s at 3.2 GHz).
    eib_rings:
        Number of EIB data rings (4).
    memory_bandwidth:
        XDR main-memory bandwidth, bytes/second (25.6 GB/s).
    memory_contention_quadratic / memory_contention_cap:
        Fractional slowdown of an SPE task from concurrently busy SPEs of
        *other* tasks on the same Cell: ``min(cap, c * others^2)``.
        Superlinear because the XDR memory controller queues; calibrated
        against the EDTLP column of Table 1.
    local_store_size:
        SPE local store capacity in bytes (256 KB).
    """

    clock_hz: float = 3.2e9
    n_spes: int = 8
    ppe_smt_contexts: int = 2
    smt_efficiency: float = 0.45
    spin_contention: float = 0.2
    os_quantum: float = 10 * MS
    context_switch: float = 1.5 * US
    ppe_spe_signal: float = 0.35 * US
    spe_spe_signal: float = 0.25 * US
    dispatch_overhead: float = 1.0 * US
    completion_overhead: float = 1.0 * US
    dma_startup: float = 0.25 * US
    dma_max_request: int = 16 * KB
    dma_alignment: int = 16
    dma_list_max: int = 2048
    spe_dma_bandwidth: float = 25.6 * GB
    eib_bandwidth: float = 204.8 * GB
    eib_rings: int = 4
    memory_bandwidth: float = 25.6 * GB
    memory_contention_quadratic: float = 0.008
    memory_contention_cap: float = 0.50
    local_store_size: int = 256 * KB

    def __post_init__(self) -> None:
        if self.n_spes < 1:
            raise ValueError("a Cell needs at least one SPE")
        if not (0.0 < self.smt_efficiency <= 1.0):
            raise ValueError("smt_efficiency must be in (0, 1]")
        if self.ppe_smt_contexts < 1:
            raise ValueError("PPE needs at least one SMT context")
        if self.dma_max_request <= 0 or self.dma_alignment <= 0:
            raise ValueError("DMA geometry must be positive")
        require_finite("os_quantum", self.os_quantum, positive=True)
        for name in _CELL_TIMES:
            require_finite(name, getattr(self, name))
        for name in _CELL_BANDWIDTHS:
            require_finite(name, getattr(self, name), positive=True)


@dataclass(frozen=True)
class BladeParams:
    """A blade hosting one or more Cell processors.

    The paper's machine is a dual-Cell blade with 1 GB XDR (512 MB per
    processor).  Cross-Cell off-loading is possible but pays an inter-chip
    latency penalty on signals and DMA.
    """

    cell: CellParams = CellParams()
    n_cells: int = 1
    cross_cell_signal_penalty: float = 0.5 * US
    cross_cell_bandwidth: float = 20.0 * GB
    ram_bytes: int = 1 * GB

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("blade needs at least one Cell")
        require_finite("cross_cell_signal_penalty",
                       self.cross_cell_signal_penalty)
        require_finite("cross_cell_bandwidth", self.cross_cell_bandwidth,
                       positive=True)

    @property
    def total_spes(self) -> int:
        return self.cell.n_spes * self.n_cells

    @property
    def total_ppe_contexts(self) -> int:
        return self.cell.ppe_smt_contexts * self.n_cells


DEFAULT_CELL = CellParams()
DEFAULT_BLADE = BladeParams()
