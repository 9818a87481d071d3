"""Memory Flow Controller: DMA timing.

Each SPE reaches main memory only through its MFC.  The model times
transfers by the documented DMA rules (Section 4 of the paper):

* a single request moves at most 16 KB, so a larger transfer is a DMA
  list of several requests, each paying a (pipelined) startup; a list
  holds at most 2048 requests (``dma_list_max``), so one transfer moves
  at most 32 MB;
* transfers must be 1, 2, 4, 8 or a multiple of 16 bytes, 128-bit aligned
  (the model rounds sizes up to a legal transfer size).

Transfer time = per-request startup + bytes / effective bandwidth, where
effective bandwidth is the lesser of the SPE's MFC port and the share of
the EIB the transfer gets (see :mod:`repro.cell.eib`).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, TYPE_CHECKING

from .params import CellParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .eib import EIB

__all__ = ["MFC", "legal_transfer_size"]

_LEGAL_SMALL = (1, 2, 4, 8)


def legal_transfer_size(nbytes: int) -> int:
    """Round ``nbytes`` up to the nearest legal MFC transfer size.

    The MFC supports transfers of 1, 2, 4, 8 bytes or any multiple of 16
    bytes.  Zero-byte transfers are rejected.
    """
    if nbytes <= 0:
        raise ValueError(f"transfer size must be positive, got {nbytes}")
    if nbytes <= 8:
        for legal in _LEGAL_SMALL:
            if nbytes <= legal:
                return legal
    return 16 * math.ceil(nbytes / 16)


class MFC:
    """DMA engine of one SPE.

    The MFC provides *timing*: how long a transfer takes and how many DMA
    requests it needs.  The actual waiting is done by callers via the
    environment, so this class is a pure, deterministic model that is
    easy to property-test.

    ``eib`` is fixed at construction: :meth:`transfer_time` is a pure
    function of ``(nbytes, concurrent)`` given the params and the bus, and
    is memoized on that pair.
    """

    def __init__(self, params: CellParams, eib: "EIB" = None) -> None:
        self.params = params
        self.eib = eib
        self._transfer_times: Dict[Tuple[int, int], float] = {}

    # -- timing ----------------------------------------------------------
    def n_requests(self, nbytes: int) -> int:
        """Number of DMA requests needed for ``nbytes``.

        A transfer is one DMA list, which holds at most ``dma_list_max``
        requests; a larger transfer raises ``ValueError``.
        """
        nbytes = legal_transfer_size(nbytes)
        n = max(1, math.ceil(nbytes / self.params.dma_max_request))
        if n > self.params.dma_list_max:
            raise ValueError(
                f"a {nbytes}-byte transfer needs {n} DMA requests; a DMA "
                f"list holds at most {self.params.dma_list_max}"
            )
        return n

    def effective_bandwidth(self, concurrent: int = 1) -> float:
        """Bandwidth one transfer sees with ``concurrent`` active DMAs.

        Limited by the SPE's own MFC port and by an equal share of the EIB
        (each of the four rings carries several transfers; contention
        matters only when many SPEs stream simultaneously).
        """
        if concurrent < 1:
            raise ValueError("concurrent must be >= 1")
        port = self.params.spe_dma_bandwidth
        if self.eib is not None:
            return min(port, self.eib.share(concurrent))
        return min(port, self.params.eib_bandwidth / concurrent)

    def transfer_time(self, nbytes: int, concurrent: int = 1) -> float:
        """Seconds to move ``nbytes`` between local store and RAM.

        Includes one startup latency per DMA request in the list (requests
        in a list pipeline, so only a fraction of the startup is exposed
        after the first request).  Invalid arguments raise on every call;
        only computed times are memoized.
        """
        key = (nbytes, concurrent)
        t = self._transfer_times.get(key)
        if t is None:
            nbytes = legal_transfer_size(nbytes)
            n_req = self.n_requests(nbytes)
            bw = self.effective_bandwidth(concurrent)
            # First request pays full startup; pipelined followers expose
            # 20%.
            startup = self.params.dma_startup * (1 + 0.2 * (n_req - 1))
            t = self._transfer_times[key] = startup + nbytes / bw
        return t
