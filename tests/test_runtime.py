"""Tests of the off-load runtimes: EDTLP blocking, Linux spinning, LLP
worker acquisition, code replacement, MGPS adaptation mechanics."""

import pytest

from repro.cell.machine import CellMachine
from repro.cell.params import BladeParams, CellParams
from repro.core.runtime import (
    EDTLPPolicy,
    LinuxPolicy,
    MGPSPolicy,
    OffloadEngine,
    ProcContext,
    StaticHybridPolicy,
)
from repro.mpi.master_worker import WorkDispenser
from repro.mpi.process import mpi_worker
from repro.sim.engine import Environment
from repro.workloads.synthetic import fine_grained_trace, uniform_trace
from repro.workloads.traces import Workload

US = 1e-6


class _OneTraceWorkload:
    """Minimal workload wrapper around a fixed trace (test double)."""

    def __init__(self, trace, copies=1):
        self._trace = trace
        self.bootstraps = copies
        self.tasks_per_bootstrap = trace.n_tasks

    def trace(self, index):
        return self._trace

    @property
    def scale(self):
        return self._trace.scale


def build(policy, blade=None, trace=None, n_procs=1, copies=None, **kw):
    env = Environment()
    machine = CellMachine(env, blade or BladeParams())
    runtime = OffloadEngine(env, machine, policy=policy, **kw)
    trace = trace if trace is not None else uniform_trace(n_tasks=30)
    wl = _OneTraceWorkload(trace, copies=copies or n_procs)
    disp = WorkDispenser(env, wl.bootstraps, n_procs)
    procs = []
    for rank in range(n_procs):
        core = machine.core_for(rank)
        affinity = (rank // len(machine.cores)) % core.n_contexts \
            if policy.pinned else None
        ctx = ProcContext(
            rank=rank,
            cell_id=rank % len(machine.cores),
            thread=core.thread(f"mpi{rank}", affinity=affinity),
        )
        if policy.pinned:
            ctx.pinned_spe = machine.spes[rank % machine.n_spes]
        procs.append(env.process(mpi_worker(ctx, runtime, disp, wl)))
    env.run_until_complete(env.all_of(procs))
    return env, machine, runtime


def test_edtlp_offloads_every_task():
    env, machine, rt = build(EDTLPPolicy())
    assert rt.stats.offloads == 30
    assert rt.stats.ppe_fallbacks == 0
    assert sum(s.tasks_executed for s in machine.spes) == 30


def test_edtlp_makespan_accounts_tasks_and_gaps():
    trace = uniform_trace(n_tasks=20, spe_us=100, gap_us=10)
    env, machine, rt = build(EDTLPPolicy(), trace=trace)
    # 20 x (10 gap + ~100 task + small overheads) plus tail.
    assert 20 * 110 * US < env.now < 20 * 130 * US


def test_linux_requires_pinned_spe():
    env = Environment()
    machine = CellMachine(env)
    rt = OffloadEngine(env, machine, policy=LinuxPolicy())
    ctx = ProcContext(rank=0, cell_id=0, thread=machine.cores[0].thread("t"))
    trace = uniform_trace(n_tasks=1)
    gen = rt.offload(ctx, trace.items[0].task, trace)
    with pytest.raises(RuntimeError, match="pinned"):
        # Drive the generator; the error fires at the first step.
        ev = next(gen)


def test_linux_uses_only_pinned_spes():
    env, machine, rt = build(LinuxPolicy(), n_procs=2)
    used = [s for s in machine.spes if s.tasks_executed > 0]
    assert len(used) == 2


def test_fine_tasks_fall_back_to_ppe():
    trace = fine_grained_trace(n_tasks=40)
    env, machine, rt = build(EDTLPPolicy(), trace=trace)
    # First off-load is optimistic; nearly everything after is throttled
    # (modulo periodic reprobes).
    assert rt.stats.ppe_fallbacks >= 30
    assert rt.granularity.throttled >= 30


def test_granularity_disabled_never_falls_back():
    trace = fine_grained_trace(n_tasks=40)
    env, machine, rt = build(
        EDTLPPolicy(), trace=trace, granularity_enabled=False
    )
    assert rt.stats.ppe_fallbacks == 0


def test_offload_disabled_runs_everything_on_ppe():
    env, machine, rt = build(EDTLPPolicy(), offload_enabled=False)
    assert rt.stats.offloads == 0
    assert rt.stats.ppe_fallbacks == 30
    assert all(s.tasks_executed == 0 for s in machine.spes)


def test_naive_mode_is_slower():
    t_opt = build(EDTLPPolicy(), optimized=True)[0].now
    t_naive = build(
        EDTLPPolicy(), optimized=False, granularity_enabled=False
    )[0].now
    assert t_naive > 1.5 * t_opt


def test_static_hybrid_acquires_workers():
    env, machine, rt = build(StaticHybridPolicy(degree=4))
    assert rt.stats.llp_invocations == 30
    # Master + 3 workers busy during each task.
    busy_spes = [s for s in machine.spes if s.busy_seconds > 0]
    assert len(busy_spes) == 4


def test_static_hybrid_loads_llp_image():
    env, machine, rt = build(StaticHybridPolicy(degree=2))
    images = {s.code_image.variant for s in machine.spes if s.code_image}
    assert images == {"llp"}


def test_llp_worker_seconds_accounted():
    env, machine, rt = build(StaticHybridPolicy(degree=4))
    assert rt.stats.llp_worker_seconds > 0


def test_mgps_starts_in_edtlp_mode():
    env = Environment()
    machine = CellMachine(env)
    policy = MGPSPolicy()
    OffloadEngine(env, machine, policy=policy)
    assert not policy.llp_active
    ctx = ProcContext(rank=0, cell_id=0, thread=machine.cores[0].thread("t"))
    assert policy.llp_degree(ctx) == 1


def test_mgps_activates_llp_for_single_source():
    env, machine, rt = build(MGPSPolicy(), n_procs=1)
    assert rt.stats.llp_invocations > 0
    assert rt.policy.llp_active


def test_mgps_stays_edtlp_with_many_sources():
    trace = uniform_trace(n_tasks=40)
    env, machine, rt = build(MGPSPolicy(), n_procs=8, trace=trace)
    # With 8 task sources U stays high: no LLP.
    assert rt.stats.llp_invocations <= rt.stats.offloads * 0.05


def test_mgps_mode_switch_replaces_code_images():
    env, machine, rt = build(MGPSPolicy(), n_procs=1)
    # Bootstrapping with one source: serial image first (EDTLP start),
    # then the LLP variant after adaptation -> at least 2 code loads.
    assert rt.stats.code_loads >= 2


def test_mgps_staleness_resets_history():
    from repro.workloads.synthetic import bursty_trace

    trace = bursty_trace(n_bursts=4, burst_len=10, quiet_us=50_000)
    env, machine, rt = build(MGPSPolicy(staleness=20e-3), n_procs=1,
                             trace=trace)
    # The runtime survives the droughts and completes all tasks.
    assert rt.stats.offloads + rt.stats.ppe_fallbacks == 40


def test_completion_signal_latency_in_cycle():
    cell = CellParams(ppe_spe_signal=5.0 * US)
    blade = BladeParams(cell=cell)
    trace = uniform_trace(n_tasks=10, spe_us=100, gap_us=10)
    slow = build(EDTLPPolicy(), blade=blade, trace=trace)[0].now
    fast = build(EDTLPPolicy(), trace=trace)[0].now
    # Two signals per off-load, ~4.65 us extra each -> ~93 us total.
    assert slow - fast == pytest.approx(10 * 2 * 4.65 * US, rel=0.15)


def test_active_sources_tracking():
    env = Environment()
    machine = CellMachine(env)
    rt = OffloadEngine(env, machine, policy=EDTLPPolicy())
    ctx = ProcContext(rank=0, cell_id=0, thread=machine.cores[0].thread("t"))
    rt.note_bootstrap_start(ctx, 0)
    assert rt._active_sources == {0}
    rt.note_bootstrap_end(ctx, 0)
    assert rt._active_sources == set()
    assert rt.stats.bootstraps_done == 1
