"""The experiment driver: machine + workload + scheduler -> result.

This is the main entry point of the library::

    from repro import Workload, edtlp, mgps, run_experiment

    wl = Workload(bootstraps=16, tasks_per_bootstrap=1000)
    r1 = run_experiment(edtlp(), wl)
    r2 = run_experiment(mgps(), wl)
    print(r2.speedup_over(r1))

Determinism: the same (spec, workload, blade, seed) always produces the
same result; different schedulers see byte-identical workload traces.
"""

from __future__ import annotations

import time
from typing import Optional

from ..cell.machine import CellMachine
from ..cell.params import BladeParams, DEFAULT_BLADE
from ..mpi.master_worker import WorkDispenser
from ..mpi.process import mpi_worker
from ..sim.engine import Environment
from ..sim.trace import Tracer
from ..workloads.traces import Workload
from .results import ScheduleResult
from .runtime import ProcContext
from .schedulers import SchedulerSpec

__all__ = ["run_experiment", "run_bsp_experiment"]


def _publish_run_metrics(
    metrics, env, machine, raw, scale, occupancy, sim_wall=0.0
) -> None:
    """End-of-run gauges: the whole-run facts the registry should carry.

    These are the numbers :mod:`repro.analysis.metrics` reads back
    instead of recomputing them from busy intervals.
    """
    from ..obs.metrics import labeled

    g = metrics.gauge
    g("run.raw_makespan_s", "simulated makespan, seconds").set(raw)
    g("run.makespan_s", "paper-scale makespan, seconds").set(raw * scale)
    g("run.spe_utilization").set(machine.spe_utilization(raw))
    g("run.n_spes", "SPEs on the simulated blade").set(machine.n_spes)
    g("run.ppe_occupancy").set(occupancy)
    g("ppe.context_switches", "PPE context switches over the run").set(
        sum(c.switches for c in machine.cores)
    )
    g("sim.events_processed").set(env.events_processed)
    # Throughput gauges for ``repro stats --fail-on``: events_processed
    # is deterministic; events-per-wall-second is wall-clock (never
    # compared across runs, gate with generous thresholds only).
    g("run.events_processed", "kernel events processed over the run").set(
        env.events_processed
    )
    g(
        "run.events_per_wall_second",
        "kernel events per wall-clock second (nondeterministic)",
    ).set(env.events_processed / sim_wall if sim_wall > 0 else 0.0)
    # Kernel-health gauges: Timeout free-list hit rate and the fraction
    # of events dispatched by the batched run loops.  Both are
    # deterministic, so ``repro stats --fail-on
    # 'run.kernel.pool_hit_rate<0.9'`` is a stable guard; the HTML
    # report's #perf lane shows the same numbers.
    ks = env.kernel_stats()
    g("run.kernel.pool_hit_rate",
      "Timeout free-list hit rate over the run").set(ks["pool_hit_rate"])
    g("run.kernel.batch_advance_fraction",
      "fraction of events dispatched by the batched run loops").set(
        ks["batch_advance_fraction"])
    # Per-SPE utilization gauges: idle SPEs never appear in the trace
    # (no task records), so the starvation detector needs the full
    # per-actor picture from the registry.
    for s in machine.spes:
        g(
            labeled("spe.utilization", spe=s.name),
            "busy fraction of one SPE over the run",
        ).set(s.utilization(raw))


def _build_injector(env, machine, faults):
    """Turn a FaultPlan (or ready injector) into an installed injector."""
    if faults is None:
        return None
    from ..faults.injector import FaultInjector

    if not isinstance(faults, FaultInjector):
        faults = FaultInjector(env, machine, faults)
    faults.install()
    return faults


def _start_ranks(env, machine, runtime, n_procs, prefix, body):
    """Start one process per rank, round-robin over the Cells.

    A *pinned* policy (the Linux baseline and lookalikes) owns no SPE
    pool: each process gets a per-CPU affinity and one pinned SPE.
    ``body(ctx)`` is the rank's process generator.
    """
    pinned = runtime.policy.pinned
    if pinned and n_procs > machine.n_spes:
        raise ValueError(
            f"the Linux baseline pins one SPE per process: "
            f"{n_procs} processes > {machine.n_spes} SPEs"
        )
    procs = []
    for rank in range(n_procs):
        cell_id = rank % len(machine.cores)
        core = machine.core_for(rank)
        local_index = rank // len(machine.cores)  # position among this cell's procs
        if pinned:
            # Linux 2.6 keeps per-CPU run queues: processes effectively
            # stick to one SMT context, producing Table 1's stair pattern.
            affinity = local_index % core.n_contexts
        else:
            affinity = None
        ctx = ProcContext(
            rank=rank,
            cell_id=cell_id,
            thread=core.thread(f"{prefix}{rank}", affinity=affinity),
        )
        if pinned:
            # Pin one SPE of the process's own Cell.
            own = [s for s in machine.spes if s.cell_id == cell_id]
            ctx.pinned_spe = own[local_index % len(own)]
        procs.append(env.process(body(ctx), name=f"{prefix}{rank}"))
    return procs


def _run_to_result(
    env, machine, runtime, injector, metrics, procs, scale, *,
    scheduler, bootstraps, n_processes, extras,
) -> ScheduleResult:
    """Run the ranks to completion and assemble the blade run's result.

    ``extras`` are the caller's own extras; the runtime's and, under a
    fault plan, the fault-tolerance counters are added to them.
    """
    wall_start = time.perf_counter()
    env.run_until_complete(env.all_of(procs))
    sim_wall = time.perf_counter() - wall_start
    raw = env.now

    occupancy = (
        sum(c.occupancy(raw) * c.n_contexts for c in machine.cores)
        / sum(c.n_contexts for c in machine.cores)
        if raw > 0
        else 0.0
    )
    st = runtime.stats
    if metrics is not None:
        _publish_run_metrics(
            metrics, env, machine, raw, scale, occupancy, sim_wall
        )
        metrics.gauge(
            "run.live_spes", "SPEs still in service at run end"
        ).set(machine.pool.n_live)
    extras = {
        **extras,
        "granularity_throttled": float(runtime.granularity.throttled),
        "llp_join_idle": runtime.llp_model.total_join_idle,
        "llp_invocations_model": float(runtime.llp_model.invocations),
    }
    if injector is not None:
        extras.update(
            spe_kills=float(injector.kills_delivered),
            spe_blacklists=float(st.spe_blacklists),
            offload_retries=float(st.offload_retries),
            retry_fallbacks=float(st.retry_fallbacks),
            watchdog_timeouts=float(st.watchdog_timeouts),
            dma_errors=float(st.dma_errors),
            llp_recoveries=float(st.llp_recoveries),
            live_spes=float(machine.pool.n_live),
        )
    return ScheduleResult(
        scheduler=scheduler,
        bootstraps=bootstraps,
        n_processes=n_processes,
        makespan=raw * scale,
        raw_makespan=raw,
        scale=scale,
        spe_utilization=machine.spe_utilization(raw),
        ppe_occupancy=occupancy,
        offloads=st.offloads,
        ppe_fallbacks=st.ppe_fallbacks,
        offload_waits=st.offload_waits,
        llp_invocations=st.llp_invocations,
        llp_mode_switches=st.llp_mode_switches,
        code_loads=st.code_loads,
        ppe_context_switches=sum(c.switches for c in machine.cores),
        per_spe_busy=tuple(s.utilization(raw) for s in machine.spes),
        extras=extras,
        result_digest=runtime.ledger.run_digest(),
        bootstraps_completed=runtime.ledger.completed,
        bootstrap_digests=runtime.ledger.bootstrap_digests(),
        events_processed=env.events_processed,
    )


def run_experiment(
    spec: SchedulerSpec,
    workload: Workload,
    blade: BladeParams = DEFAULT_BLADE,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics=None,
    faults=None,
    tolerance=None,
) -> ScheduleResult:
    """Execute ``workload`` under ``spec`` on a fresh simulated blade.

    Pass a :class:`~repro.sim.trace.Tracer` to record per-SPE task events
    (for timelines; see :mod:`repro.analysis.timeline`) and/or a
    :class:`~repro.obs.metrics.MetricsRegistry` to collect scheduler
    decision metrics.  Neither affects scheduling decisions.

    ``faults`` accepts a :class:`~repro.faults.FaultPlan` (or an
    un-installed :class:`~repro.faults.FaultInjector`) to perturb the run;
    ``tolerance`` overrides the default
    :class:`~repro.faults.TolerancePolicy`.  With ``faults=None`` the
    fault machinery is entirely bypassed.
    """
    env = Environment(tracer=tracer, metrics=metrics)
    machine = CellMachine(env, blade)
    injector = _build_injector(env, machine, faults)
    runtime = spec.build(env, machine, faults=injector, tolerance=tolerance)
    n_procs = spec.default_processes(machine.n_spes, workload.bootstraps)
    dispenser = WorkDispenser(env, workload.bootstraps, n_procs)
    procs = _start_ranks(
        env, machine, runtime, n_procs, "mpi",
        lambda ctx: mpi_worker(ctx, runtime, dispenser, workload),
    )
    return _run_to_result(
        env, machine, runtime, injector, metrics, procs, workload.scale,
        scheduler=spec.name, bootstraps=workload.bootstraps,
        n_processes=n_procs, extras={},
    )


def run_bsp_experiment(
    spec: SchedulerSpec,
    workload,
    blade: BladeParams = DEFAULT_BLADE,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics=None,
    faults=None,
    tolerance=None,
) -> ScheduleResult:
    """Execute a :class:`~repro.workloads.coupled.BSPWorkload`.

    One software thread per BSP rank; iterations are separated by a
    global barrier.  Reported times are scaled by ``workload.scale``
    (1.0 by default: BSP workloads are simulated in full).  ``faults``
    and ``tolerance`` work as in :func:`run_experiment`.
    """
    from ..mpi.process import bsp_worker
    from ..sim.resources import Barrier

    env = Environment(tracer=tracer, metrics=metrics)
    machine = CellMachine(env, blade)
    injector = _build_injector(env, machine, faults)
    runtime = spec.build(env, machine, faults=injector, tolerance=tolerance)
    barrier = Barrier(env, workload.n_processes)
    procs = _start_ranks(
        env, machine, runtime, workload.n_processes, "bsp",
        lambda ctx: bsp_worker(ctx, runtime, workload, barrier),
    )
    return _run_to_result(
        env, machine, runtime, injector, metrics, procs, workload.scale,
        scheduler=spec.name, bootstraps=workload.iterations,
        n_processes=workload.n_processes,
        extras={"barrier_generations": float(workload.iterations)},
    )
