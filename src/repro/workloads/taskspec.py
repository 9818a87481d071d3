"""Task and trace data structures handed to the schedulers.

A *task spec* is one off-loadable function invocation with everything the
runtime needs to decide and to simulate: the optimized SPE duration, the
PPE fallback duration, the naive (unoptimized) SPE duration, and the loop
geometry for loop-level parallelization.  A *bootstrap trace* is the
sequence of off-loads one RAxML bootstrap performs, interleaved with PPE
compute gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..cell.local_store import CodeImage

__all__ = ["LoopSpec", "TaskSpec", "OffloadItem", "BootstrapTrace"]


@dataclass(frozen=True)
class LoopSpec:
    """Geometry of the parallelizable loop(s) inside an off-loaded task."""

    iterations: int
    coverage: float            # fraction of the task's SPE time inside the loop
    reduction: bool            # global reduction at loop end
    bytes_per_iteration: int   # worker DMA traffic per iteration

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("loop needs at least one iteration")
        if not (0.0 <= self.coverage <= 1.0):
            raise ValueError("coverage must be within [0, 1]")
        if self.bytes_per_iteration < 0:
            raise ValueError("bytes_per_iteration must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """One off-loadable function invocation.

    ``working_set`` / ``data_key`` support the memory-aware scheduling
    extension (the paper's stated future work): tasks of the same
    ``data_key`` (e.g. one bootstrap's likelihood vectors) can reuse data
    already resident in an SPE's local store and skip the input DMA.
    """

    function: str
    spe_time: float            # optimized serial SPE duration (t_spe), seconds
    ppe_time: float            # duration if executed on the PPE (t_ppe)
    naive_spe_time: float      # unoptimized SPE duration
    loop: Optional[LoopSpec] = None
    working_set: int = 0       # local-store bytes of input data
    data_key: Optional[str] = None

    # The task's content as the result ledger hashes it, encoded once
    # here rather than once per completed off-load.
    ledger_payload: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.spe_time <= 0 or self.ppe_time <= 0 or self.naive_spe_time <= 0:
            raise ValueError("task durations must be positive")
        if self.working_set < 0:
            raise ValueError("working_set must be non-negative")
        object.__setattr__(self, "ledger_payload", (
            f"{self.function}|{self.spe_time!r}|{self.ppe_time!r}"
            f"|{self.naive_spe_time!r}|{self.working_set}|{self.data_key}"
        ).encode())

    @property
    def parallelizable(self) -> bool:
        return self.loop is not None and self.loop.coverage > 0


@dataclass(frozen=True)
class OffloadItem:
    """One step of a bootstrap: PPE compute then an off-load request."""

    ppe_gap: float
    task: TaskSpec

    def __post_init__(self) -> None:
        if self.ppe_gap < 0:
            raise ValueError("ppe_gap must be non-negative")


@dataclass(frozen=True)
class BootstrapTrace:
    """The off-load sequence of one bootstrap (or one tree inference).

    ``scale`` is the trace-compression ratio: a real bootstrap performs
    ``scale`` times as many off-loads as this trace contains; reported
    times are multiplied by it.  ``code_image`` / ``llp_image`` are the
    SPE modules the tasks require (serial and loop-parallel variants).
    """

    index: int
    items: Tuple[OffloadItem, ...]
    tail_ppe: float
    scale: float
    code_image: CodeImage
    llp_image: CodeImage

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a bootstrap trace needs at least one off-load")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.tail_ppe < 0:
            raise ValueError("tail_ppe must be non-negative")

    @property
    def n_tasks(self) -> int:
        return len(self.items)

    @property
    def total_spe_time(self) -> float:
        return sum(i.task.spe_time for i in self.items)

    @property
    def total_ppe_time(self) -> float:
        return sum(i.ppe_gap for i in self.items) + self.tail_ppe

    @property
    def serial_estimate(self) -> float:
        """Estimated single-SPE, single-worker duration of this trace."""
        return self.total_spe_time + self.total_ppe_time
