"""Randomized stress tests of the scheduling runtime (hypothesis).

The paper's future work calls for "more stress tests of our runtime
system".  These property tests throw randomized task streams at every
scheduler and check the invariants that must survive any workload:
completion, conservation, resource hygiene, physical lower bounds and
determinism.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.cell.local_store import CodeImage
from repro.cell.machine import CellMachine
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
from repro.workloads import FixedTraceWorkload
from repro.workloads.taskspec import BootstrapTrace, LoopSpec, OffloadItem, TaskSpec

US = 1e-6
KB = 1024

task_st = st.builds(
    TaskSpec,
    function=st.sampled_from(["alpha", "beta", "gamma"]),
    spe_time=st.floats(min_value=2e-6, max_value=400e-6),
    ppe_time=st.floats(min_value=2e-6, max_value=600e-6),
    naive_spe_time=st.floats(min_value=2e-6, max_value=900e-6),
    loop=st.one_of(
        st.none(),
        st.builds(
            LoopSpec,
            iterations=st.integers(min_value=1, max_value=500),
            coverage=st.floats(min_value=0.0, max_value=0.95),
            reduction=st.booleans(),
            bytes_per_iteration=st.integers(min_value=0, max_value=512),
        ),
    ),
    working_set=st.integers(min_value=0, max_value=100 * KB),
    data_key=st.one_of(st.none(), st.sampled_from(["d0", "d1", "d2"])),
)

item_st = st.builds(
    OffloadItem,
    ppe_gap=st.floats(min_value=0.0, max_value=100e-6),
    task=task_st,
)


@st.composite
def trace_st(draw, index=0):
    items = draw(st.lists(item_st, min_size=1, max_size=25))
    return BootstrapTrace(
        index=index,
        items=tuple(items),
        tail_ppe=draw(st.floats(min_value=0.0, max_value=50e-6)),
        scale=1.0,
        code_image=CodeImage("stress", "serial", 64 * KB),
        llp_image=CodeImage("stress", "llp", 70 * KB),
    )


@st.composite
def workload_st(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return FixedTraceWorkload([draw(trace_st(index=i)) for i in range(n)])


def run(make_policy, wl, n_procs, **kw):
    env = Environment()
    machine = CellMachine(env)
    rt = OffloadEngine(env, machine, policy=make_policy(), **kw)
    pinned = rt.policy.pinned
    disp = WorkDispenser(env, wl.bootstraps, n_procs)
    procs = []
    for rank in range(n_procs):
        core = machine.cores[0]
        affinity = rank % core.n_contexts if pinned else None
        ctx = ProcContext(rank=rank, cell_id=0,
                          thread=core.thread(f"m{rank}", affinity=affinity))
        if pinned:
            ctx.pinned_spe = machine.spes[rank % machine.n_spes]
        procs.append(env.process(mpi_worker(ctx, rt, disp, wl)))
    env.run_until_complete(env.all_of(procs))
    return env, machine, rt


def best_case(task, n_spes):
    """Physical lower bound on one task's completion time."""
    spe_best = task.spe_time
    if task.loop is not None and task.loop.iterations > 1:
        cov = task.loop.coverage
        spe_best = task.spe_time * (1.0 - cov + cov / n_spes)
    return min(spe_best, task.ppe_time)


RUNTIMES = [
    (EDTLPPolicy, {}),
    (EDTLPPolicy, {"locality_aware": True}),
    (LinuxPolicy, {}),
    (partial(StaticHybridPolicy, degree=3), {}),
    (MGPSPolicy, {}),
]


@pytest.mark.parametrize("make_policy,kw", RUNTIMES,
                         ids=["edtlp", "edtlp-loc", "linux", "hybrid3", "mgps"])
@given(wl=workload_st(), n_procs=st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_runtime_invariants(make_policy, kw, wl, n_procs):
    n_procs = min(n_procs, wl.bootstraps)
    env, machine, rt = run(make_policy, wl, n_procs, **kw)

    total_tasks = sum(wl.trace(i).n_tasks for i in range(wl.bootstraps))

    # Conservation: every task executed exactly once, somewhere.
    assert rt.stats.offloads + rt.stats.ppe_fallbacks == total_tasks
    assert rt.stats.bootstraps_done == wl.bootstraps

    # Resource hygiene: nothing busy, nothing leaked.
    assert all(not s.busy for s in machine.spes)
    if not rt.policy.pinned:
        assert machine.pool.n_free == machine.n_spes
    assert machine.pool.n_waiting == 0

    # Physics: utilization within bounds, makespan above trivial bounds.
    makespan = env.now
    assert makespan > 0
    for s in machine.spes:
        assert s.busy_seconds <= makespan + 1e-12
    total_gap = sum(wl.trace(i).total_ppe_time for i in range(wl.bootstraps))
    assert makespan >= total_gap / machine.cores[0].n_contexts - 1e-9
    # No task can finish faster than its best-case duration.  A task
    # with a parallel loop can legitimately beat *both* serial times:
    # its covered fraction may be split across every SPE in the machine.
    longest = max(
        best_case(i.task, machine.n_spes)
        for b in range(wl.bootstraps)
        for i in wl.trace(b).items
    )
    assert makespan >= longest - 1e-12


def test_llp_split_may_beat_both_serial_times():
    """Regression (hypothesis-discovered): a high-coverage loop split
    across 3 SPEs finishes faster than min(spe_time, ppe_time); the
    makespan bound must account for loop-level parallelism."""
    task = TaskSpec(
        function="alpha",
        spe_time=0.0003102383503029622,
        ppe_time=0.00016238799099557702,
        naive_spe_time=0.0008834229215917751,
        loop=LoopSpec(iterations=3, coverage=0.875, reduction=False,
                      bytes_per_iteration=0),
    )
    wl = FixedTraceWorkload([BootstrapTrace(
        index=0,
        items=(OffloadItem(ppe_gap=0.0, task=task),),
        tail_ppe=0.0,
        scale=1.0,
        code_image=CodeImage("stress", "serial", 64 * KB),
        llp_image=CodeImage("stress", "llp", 70 * KB),
    )])
    env, machine, rt = run(partial(StaticHybridPolicy, degree=3), wl, 1)
    assert env.now < min(task.spe_time, task.ppe_time)
    assert env.now >= best_case(task, machine.n_spes) - 1e-12


@given(wl=workload_st())
@settings(max_examples=10, deadline=None)
def test_determinism_across_reruns(wl):
    n = min(2, wl.bootstraps)
    t1 = run(MGPSPolicy, wl, n)[0].now
    t2 = run(MGPSPolicy, wl, n)[0].now
    assert t1 == t2


@given(wl=workload_st())
@settings(max_examples=10, deadline=None)
def test_edtlp_never_slower_than_linux_by_much(wl):
    """Pure scheduling property: with the granularity governor disabled
    (its EWMA decisions depend on off-load *order*, which legitimately
    differs between schedulers on adversarial tiny-task streams), EDTLP
    may tie Linux at low process counts — spinning in place avoids the
    block/resume switches — but must never lose beyond a switch budget.
    """
    n = min(4, wl.bootstraps)
    t_edtlp = run(EDTLPPolicy, wl, n, granularity_enabled=False)[0].now
    t_linux = run(LinuxPolicy, wl, n, granularity_enabled=False)[0].now
    total_tasks = sum(wl.trace(i).n_tasks for i in range(wl.bootstraps))
    switch_budget = total_tasks * 10e-6  # a few switch costs per task
    assert t_edtlp <= t_linux * 1.10 + switch_budget
