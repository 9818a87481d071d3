"""Tests for the loop-level parallelism model (work sharing, adaptive
unbalancing, Table 2 shape)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cell import CellParams
from repro.core.llp import LLPConfig, LoopParallelModel, split_iterations
from repro.workloads.taskspec import LoopSpec, TaskSpec

US = 1e-6


def make_task(
    spe_us=96.0,
    coverage=0.7,
    iterations=228,
    reduction=True,
    function="newview",
):
    return TaskSpec(
        function=function,
        spe_time=spe_us * US,
        ppe_time=1.38 * spe_us * US,
        naive_spe_time=1.85 * spe_us * US,
        loop=LoopSpec(
            iterations=iterations,
            coverage=coverage,
            reduction=reduction,
            bytes_per_iteration=144,
        ),
    )


class TestSplitIterations:
    def test_equal_split(self):
        assert split_iterations(100, 4, 0.25) == [25, 25, 25, 25]

    def test_master_fraction_respected(self):
        chunks = split_iterations(100, 4, 0.40)
        assert chunks[0] == 40
        assert sum(chunks) == 100

    def test_everyone_gets_at_least_one(self):
        chunks = split_iterations(10, 10, 0.9)
        assert all(c >= 1 for c in chunks)
        assert sum(chunks) == 10

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            split_iterations(3, 4, 0.25)

    def test_single_spe(self):
        # k == 1 takes the whole loop regardless of the fraction, so the
        # fraction is not validated on that path.
        assert split_iterations(228, 1, 1.0) == [228]

    def test_fraction_out_of_range_rejected(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"master_fraction"):
                split_iterations(100, 4, bad)

    def test_k_exceeding_n_message_names_empty_chunks(self):
        with pytest.raises(ValueError, match=r"empty chunks"):
            split_iterations(3, 4, 0.25)

    @given(
        n=st.integers(min_value=1, max_value=5000),
        k=st.integers(min_value=1, max_value=16),
        f=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_properties(self, n, k, f):
        if k > n:
            with pytest.raises(ValueError):
                split_iterations(n, k, f)
            return
        chunks = split_iterations(n, k, f)
        assert len(chunks) == k
        assert sum(chunks) == n
        assert all(c >= 1 for c in chunks)
        # Worker chunks are balanced within 1 iteration.
        if k > 1:
            workers = chunks[1:]
            assert max(workers) - min(workers) <= 1


class TestLLPConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            LLPConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LLPConfig(signal_issue=-1.0)


class TestInvocation:
    def setup_method(self):
        self.model = LoopParallelModel(CellParams())

    def test_k1_returns_serial_time(self):
        task = make_task()
        inv = self.model.invoke(task, 1)
        assert inv.duration == pytest.approx(task.spe_time)
        assert inv.k == 1

    def test_parallel_faster_than_serial_at_small_k(self):
        task = make_task()
        t1 = self.model.invoke(task, 1).duration
        t2 = self.model.invoke(task, 2).duration
        t4 = self.model.invoke(task, 4).duration
        assert t2 < t1
        assert t4 < t2

    def test_overheads_dominate_at_large_k(self):
        # The Table 2 shape: efficiency degrades past ~5 SPEs.
        task = make_task()
        times = {k: self.model.invoke(task, k).duration for k in range(1, 9)}
        best_k = min(times, key=times.get)
        assert 3 <= best_k <= 6
        assert times[8] > times[best_k]

    def test_k_clamped_to_iterations(self):
        task = make_task(iterations=3)
        inv = self.model.invoke(task, 8)
        assert inv.k == 3

    def test_zero_coverage_means_no_parallelism(self):
        task = make_task(coverage=0.0)
        inv = self.model.invoke(task, 4)
        assert inv.k == 1
        assert inv.duration == pytest.approx(task.spe_time)

    def test_reduction_costs_scale_with_workers(self):
        m = LoopParallelModel(CellParams())
        r2 = m.invoke(make_task(reduction=True), 2).reduction_time
        r8 = m.invoke(make_task(reduction=True), 8).reduction_time
        assert r8 == pytest.approx(r2 * 7)

    def test_cross_cell_workers_slow_the_join(self):
        m1 = LoopParallelModel(CellParams())
        m2 = LoopParallelModel(CellParams())
        local = m1.invoke(make_task(), 4, cross_cell_workers=0).duration
        remote = m2.invoke(make_task(), 4, cross_cell_workers=3).duration
        assert remote >= local

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            self.model.invoke(make_task(), 0)

    def test_invocation_counters(self):
        m = LoopParallelModel(CellParams())
        m.invoke(make_task(), 4)
        m.invoke(make_task(), 4)
        assert m.invocations == 2


class TestAdaptiveUnbalancing:
    def test_master_fraction_grows_above_equal_split(self):
        """Workers start late (signal + DMA), so the converged master
        fraction must exceed 1/k — the paper's 'purposeful load
        unbalancing'."""
        m = LoopParallelModel(CellParams())
        task = make_task()
        for _ in range(60):
            m.invoke(task, 4)
        assert m.master_fraction("newview", 4) > 1.0 / 4

    def test_join_idle_shrinks_with_adaptation(self):
        m = LoopParallelModel(CellParams())
        task = make_task()
        first = m.invoke(task, 4).join_idle
        for _ in range(60):
            last = m.invoke(task, 4).join_idle
        assert last <= first

    def test_adaptation_improves_duration(self):
        adaptive = LoopParallelModel(CellParams(), LLPConfig(adaptive=True))
        frozen = LoopParallelModel(CellParams(), LLPConfig(adaptive=False))
        task = make_task()
        for _ in range(60):
            t_adapt = adaptive.invoke(task, 4).duration
            t_frozen = frozen.invoke(task, 4).duration
        assert t_adapt <= t_frozen

    def test_frozen_fraction_stays_equal_split(self):
        m = LoopParallelModel(CellParams(), LLPConfig(adaptive=False))
        task = make_task()
        for _ in range(10):
            m.invoke(task, 4)
        assert m.master_fraction("newview", 4) == pytest.approx(0.25)

    def test_state_keyed_by_function_and_degree(self):
        m = LoopParallelModel(CellParams())
        for _ in range(20):
            m.invoke(make_task(function="newview"), 4)
        assert m.master_fraction("newview", 4) != pytest.approx(
            m.master_fraction("evaluate", 4)
        ) or m.master_fraction("evaluate", 4) == pytest.approx(0.25)

    def test_converged_fraction_balances_the_join(self):
        """After convergence the master and the slowest worker finish
        within ~one loop iteration of each other, and the master holds
        more than the equal share (it starts earlier)."""
        m = LoopParallelModel(CellParams())
        task = make_task()
        for _ in range(200):
            inv = m.invoke(task, 4)
        loop = task.loop
        t_iter = task.spe_time * loop.coverage / loop.iterations
        assert inv.join_idle <= 1.5 * t_iter
        f = m.master_fraction("newview", 4)
        assert 0.25 < f < 0.40

    @given(k=st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_join_idle_bounded_after_convergence(self, k):
        m = LoopParallelModel(CellParams())
        task = make_task()
        for _ in range(100):
            inv = m.invoke(task, k)
        # After convergence the join idle is below two iteration times.
        t_iter = task.spe_time * task.loop.coverage / task.loop.iterations
        assert inv.join_idle <= 2.5 * t_iter + 1e-9


class TestSplitGeometryMemo:
    """The static path's per-split memo against a computation per call.

    ``LoopParallelModel.invoke`` keeps each worker's start delay and
    result DMA per ``(loop, k, cross_cell_workers, chunks)``.  A model
    whose memo is emptied before every call computes them afresh each
    time; call for call it must give the very same invocation and
    adaptive state as a model that reuses them.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        iterations=st.integers(2, 300),
        coverage=st.floats(min_value=0.05, max_value=1.0),
        reduction=st.booleans(),
        bpi=st.integers(0, 4096),
        k=st.integers(2, 8),
        calls=st.lists(
            st.tuples(st.floats(min_value=1.0, max_value=500.0),
                      st.integers(0, 7)),
            min_size=1, max_size=30,
        ),
    )
    def test_memo_matches_fresh_geometry(self, iterations, coverage,
                                         reduction, bpi, k, calls):
        loop = LoopSpec(iterations=iterations, coverage=coverage,
                        reduction=reduction, bytes_per_iteration=bpi)
        long_lived = LoopParallelModel(CellParams())
        fresh = LoopParallelModel(CellParams())
        for spe_us, cross in calls:
            task = TaskSpec(function="newview", spe_time=spe_us * US,
                            ppe_time=1.38 * spe_us * US,
                            naive_spe_time=1.85 * spe_us * US, loop=loop)
            fresh._splits.clear()
            got = long_lived.invoke(task, k, cross_cell_workers=cross)
            want = fresh.invoke(task, k, cross_cell_workers=cross)
            assert repr(got) == repr(want)
            assert repr(long_lived._fraction) == repr(fresh._fraction)
