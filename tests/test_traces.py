"""Tests for workload profiles and trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    RAXML_42SC,
    RaxmlProfile,
    TraceBuilder,
    Workload,
    bursty_trace,
    fine_grained_trace,
    mixed_granularity_trace,
    uniform_trace,
)

US = 1e-6


class TestProfile:
    def test_paper_anchor_arithmetic(self):
        p = RAXML_42SC
        # 90% of 28.46 s on SPEs at 96 us per task -> ~267 k off-loads.
        assert p.spe_seconds == pytest.approx(25.614)
        assert p.ppe_seconds == pytest.approx(2.846)
        assert 260_000 < p.tasks_per_bootstrap_full < 270_000
        # The off-loadable code runs ~1.38x slower on the PPE (the paper's
        # 1.32x overall speedup plus the 10% never-off-loaded part).
        assert 1.30 < p.ppe_slowdown < 1.45
        # Naive SPE code is ~1.86x slower than optimized.
        assert 1.75 < p.naive_slowdown < 1.95

    def test_function_shares_sum_to_one(self):
        assert sum(f.time_share for f in RAXML_42SC.functions) == pytest.approx(1.0)

    def test_function_lookup(self):
        assert RAXML_42SC.function_by_name("newview").reduction is False
        with pytest.raises(KeyError):
            RAXML_42SC.function_by_name("nope")

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            RaxmlProfile(spe_fraction=1.5)


class TestTraceBuilder:
    def test_totals_match_profile(self):
        tr = TraceBuilder(seed=0).build(0, 500)
        p = RAXML_42SC
        assert tr.total_spe_time * tr.scale == pytest.approx(p.spe_seconds)
        # PPE gaps + explicitly charged runtime overhead = PPE total.
        overhead = tr.n_tasks * p.runtime_overhead_us * US
        assert (tr.total_ppe_time + overhead) * tr.scale == pytest.approx(
            p.ppe_seconds, rel=1e-6
        )

    def test_function_time_shares_preserved(self):
        tr = TraceBuilder(seed=0).build(0, 1000)
        per_fn = {}
        for item in tr.items:
            per_fn.setdefault(item.task.function, 0.0)
            per_fn[item.task.function] += item.task.spe_time
        total = sum(per_fn.values())
        for f in RAXML_42SC.functions:
            assert per_fn[f.name] / total == pytest.approx(f.time_share, rel=1e-6)

    def test_deterministic_per_index(self):
        a = TraceBuilder(seed=3).build(5, 200)
        b = TraceBuilder(seed=3).build(5, 200)
        assert a.items == b.items

    def test_different_indices_differ(self):
        a = TraceBuilder(seed=3).build(0, 200)
        b = TraceBuilder(seed=3).build(1, 200)
        assert a.items != b.items

    def test_scale_is_compression_ratio(self):
        tr = TraceBuilder().build(0, 500)
        assert tr.scale == pytest.approx(
            RAXML_42SC.tasks_per_bootstrap_full / 500
        )

    def test_loops_attached(self):
        tr = TraceBuilder().build(0, 100)
        assert all(i.task.loop is not None for i in tr.items)
        assert all(i.task.loop.iterations == 228 for i in tr.items)

    def test_too_few_tasks_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().build(0, 3)

    @given(n=st.integers(min_value=50, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_mean_task_duration_near_96us(self, n):
        tr = TraceBuilder(seed=1).build(0, n)
        mean = tr.total_spe_time / tr.n_tasks
        assert mean == pytest.approx(96 * US, rel=0.02)


class TestWorkload:
    def test_traces_cached(self):
        wl = Workload(bootstraps=2, tasks_per_bootstrap=100)
        assert wl.trace(0) is wl.trace(0)

    def test_index_bounds(self):
        wl = Workload(bootstraps=2, tasks_per_bootstrap=100)
        with pytest.raises(IndexError):
            wl.trace(2)

    def test_invalid_bootstraps(self):
        with pytest.raises(ValueError):
            Workload(bootstraps=0)


class TestSynthetic:
    def test_uniform_trace_shape(self):
        tr = uniform_trace(n_tasks=10, spe_us=100, gap_us=10)
        assert tr.n_tasks == 10
        assert tr.total_spe_time == pytest.approx(10 * 100 * US)

    def test_fine_grained_fails_granularity(self):
        tr = fine_grained_trace(n_tasks=5)
        for item in tr.items:
            assert item.task.spe_time > item.task.ppe_time

    def test_mixed_granularity_has_both(self):
        tr = mixed_granularity_trace(n_tasks=30)
        fns = {i.task.function for i in tr.items}
        assert fns == {"tiny", "coarse"}

    def test_bursty_trace_has_quiet_gaps(self):
        tr = bursty_trace(n_bursts=3, burst_len=5, quiet_us=5000)
        gaps = [i.ppe_gap for i in tr.items]
        assert sum(1 for g in gaps if g > 1000 * US) == 2
