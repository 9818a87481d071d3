"""The MPI worker process models.

:func:`mpi_worker` — one simulated MPI process executing bootstraps
pulled from the work dispenser (RAxML's master-worker shape).  Per
bootstrap it replays the off-load trace: a PPE compute gap, then an
off-load request served by the active runtime (which is where all
scheduling policy lives).

:func:`bsp_worker` — one rank of a bulk-synchronous hybrid MPI workload:
iterations of off-load runs separated by barriers (the Section 6
generalization shape).
"""

from __future__ import annotations

from typing import Generator

from ..core.runtime import OffloadEngine, ProcContext
from ..sim.events import Event
from ..sim.resources import Barrier
from ..workloads.traces import Workload
from .master_worker import WorkDispenser

__all__ = ["mpi_worker", "bsp_worker"]


def mpi_worker(
    ctx: ProcContext,
    runtime: OffloadEngine,
    dispenser: WorkDispenser,
    workload: Workload,
) -> Generator[Event, None, int]:
    """Worker rank main loop; returns the number of bootstraps completed."""
    completed = 0
    while True:
        index = yield dispenser.get()
        if index is None:
            return completed
        trace = workload.trace(index)
        # The ledger keys on the trace's own identity (``trace.index``),
        # not the dispenser's positional index, so a trace carried into
        # a different bag (serving batches, failover re-execution) keeps
        # its digest.  For a plain Workload the two coincide.
        identity = trace.index
        runtime.note_bootstrap_start(ctx, identity)
        for item in trace.items:
            if item.ppe_gap > 0:
                yield ctx.thread.run(item.ppe_gap)
            yield from runtime.offload(ctx, item.task, trace)
            # The task's result is in hand here — whether it ran on an
            # SPE, after retries, or on the PPE — so this is where it
            # joins the bootstrap's result chain.
            runtime.note_task_complete(ctx, item.task)
        if trace.tail_ppe > 0:
            yield ctx.thread.run(trace.tail_ppe)
        runtime.note_bootstrap_end(ctx, identity)
        completed += 1


def bsp_worker(
    ctx: ProcContext,
    runtime: OffloadEngine,
    workload,
    barrier: Barrier,
) -> Generator[Event, None, int]:
    """One BSP rank: off-load runs separated by global barriers.

    A rank "has work" only inside its phases — between its last off-load
    of an iteration and the barrier release it is blocked, which is
    exactly when MGPS sees the machine's task parallelism collapse.
    """
    runtime.note_bootstrap_start(ctx, ctx.rank)
    phases = 0
    for iteration in range(workload.iterations):
        for item in workload.phase_items(ctx.rank, iteration):
            if item.ppe_gap > 0:
                yield ctx.thread.run(item.ppe_gap)
            yield from runtime.offload(ctx, item.task, workload)
            runtime.note_task_complete(ctx, item.task)
        phases += 1
        yield barrier.arrive()
    runtime.note_bootstrap_end(ctx, ctx.rank)
    return phases
