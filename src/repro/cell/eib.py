"""Element Interconnect Bus model.

The EIB is a four-ring coherent bus moving 96 bytes/cycle (204.8 GB/s at
3.2 GHz) between PPE, SPEs, memory and I/O.  For scheduling purposes one
aspect matters: **bandwidth sharing**.  When ``k`` transfers are in
flight they share the aggregate bandwidth, but a single transfer can
never use more than one ring's worth.  The caller names ``k``:
:meth:`repro.cell.mfc.MFC.effective_bandwidth` passes the concurrent
transfer count it was asked about.
"""

from __future__ import annotations

from .params import CellParams

__all__ = ["EIB"]


class EIB:
    """Bandwidth arbiter for one Cell's on-chip interconnect."""

    def __init__(self, params: CellParams) -> None:
        self.params = params

    @property
    def ring_bandwidth(self) -> float:
        """Peak bandwidth of a single ring (aggregate / #rings)."""
        return self.params.eib_bandwidth / self.params.eib_rings

    def share(self, concurrent: int) -> float:
        """Bandwidth available to one transfer among ``concurrent``.

        A single transfer is capped at one ring.
        """
        if concurrent < 1:
            raise ValueError("concurrent must be >= 1")
        return min(self.ring_bandwidth, self.params.eib_bandwidth / concurrent)
