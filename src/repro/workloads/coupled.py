"""Bulk-synchronous hybrid MPI workloads (the generalization claim).

The paper argues its schedulers "generalize to a broad range of
applications, particularly those written in MPI or in the hybrid
MPI/OpenMP model" (Section 6).  RAxML's bootstraps are embarrassingly
parallel; the harder — and more common — MPI shape is bulk-synchronous:
iterations of local compute (with off-loadable kernels) separated by
barriers, often with *load imbalance* across ranks.

A :class:`BSPWorkload` models exactly that: per (rank, iteration), a run
of off-loads whose count follows per-rank weights.  During each phase's
tail only the overloaded ranks still compute, so task-level parallelism
collapses — the regime where MGPS's loop-level parallelism accelerates
the stragglers and pulls the barrier in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..cell.local_store import CodeImage
from ..sim.rng import RngStreams
from .taskspec import LoopSpec, OffloadItem, TaskSpec

__all__ = ["BSPWorkload"]

US = 1e-6
KB = 1024


@dataclass
class BSPWorkload:
    """An iterative bulk-synchronous workload over ``n_processes`` ranks.

    Attributes
    ----------
    n_processes:
        MPI ranks (each is one software thread on the PPE).
    iterations:
        Outer iterations; a barrier separates consecutive ones.
    tasks_per_iteration:
        Mean off-loads per rank per iteration.
    imbalance:
        Straggler skew: rank 0 carries ``1 + imbalance`` times the load
        of every other rank (0 = perfectly even).  Stragglers are the
        classic BSP pathology: between the straggler's last task and the
        barrier, every other rank idles.
    task_us / gap_us:
        Mean off-loaded kernel duration and PPE gap.
    """

    n_processes: int = 8
    iterations: int = 10
    tasks_per_iteration: int = 50
    imbalance: float = 0.0
    task_us: float = 100.0
    gap_us: float = 8.0
    loop_iterations: int = 228
    loop_coverage: float = 0.7
    seed: int = 0
    scale: float = 1.0
    code_image: CodeImage = field(
        default_factory=lambda: CodeImage("bsp", "serial", 80 * KB)
    )
    llp_image: CodeImage = field(
        default_factory=lambda: CodeImage("bsp", "llp", 84 * KB)
    )

    def __post_init__(self) -> None:
        if self.n_processes < 1 or self.iterations < 1:
            raise ValueError("need at least one process and one iteration")
        if self.tasks_per_iteration < 1:
            raise ValueError("tasks_per_iteration must be >= 1")
        if self.imbalance < 0:
            raise ValueError("imbalance must be non-negative")
        w = np.ones(self.n_processes)
        w[0] += self.imbalance
        self._weights = w
        self._cache: dict = {}

    def phase_items(self, rank: int, iteration: int) -> Tuple[OffloadItem, ...]:
        """The off-load run of ``rank`` in ``iteration``."""
        if not (0 <= rank < self.n_processes):
            raise IndexError(f"rank {rank} out of range")
        if not (0 <= iteration < self.iterations):
            raise IndexError(f"iteration {iteration} out of range")
        key = (rank, iteration)
        items = self._cache.get(key)
        if items is None:
            rng = RngStreams(self.seed).spawn(f"r{rank}.i{iteration}").stream("t")
            n = max(1, round(self.tasks_per_iteration * self._weights[rank]))
            durations = rng.gamma(6.0, (self.task_us * US) / 6.0, size=n)
            gaps = rng.gamma(2.0, (self.gap_us * US) / 2.0, size=n)
            out: List[OffloadItem] = []
            for d, g in zip(durations, gaps):
                spe_t = float(d)
                out.append(
                    OffloadItem(
                        ppe_gap=float(g),
                        task=TaskSpec(
                            function="bsp_kernel",
                            spe_time=spe_t,
                            ppe_time=spe_t * 1.4,
                            naive_spe_time=spe_t * 2.0,
                            loop=LoopSpec(
                                iterations=self.loop_iterations,
                                coverage=self.loop_coverage,
                                reduction=True,
                                bytes_per_iteration=128,
                            ),
                            working_set=48 * KB,
                            data_key=f"bsp.r{rank}",
                        ),
                    )
                )
            items = tuple(out)
            self._cache[key] = items
        return items
