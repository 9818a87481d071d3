"""Tests for metrics and report rendering."""

import pytest

from repro.analysis import (
    crossover,
    format_series,
    format_table,
    paper_comparison,
)
from repro.core.results import ScheduleResult


def result(makespan, name="s", bootstraps=1):
    return ScheduleResult(
        scheduler=name,
        bootstraps=bootstraps,
        n_processes=1,
        makespan=makespan,
        raw_makespan=makespan,
        scale=1.0,
        spe_utilization=0.5,
        ppe_occupancy=0.5,
        offloads=10,
        ppe_fallbacks=0,
        offload_waits=0,
        llp_invocations=0,
        llp_mode_switches=0,
        code_loads=1,
        ppe_context_switches=0,
        per_spe_busy=(0.5,) * 8,
    )


class TestMetrics:
    def test_crossover(self):
        xs = [1, 2, 4, 8]
        a = [10, 20, 40, 100]
        b = [30, 30, 50, 60]
        assert crossover(xs, a, b) == 8
        assert crossover(xs, b, a) == 1
        assert crossover(xs, a, [200] * 4) == -1
        with pytest.raises(ValueError):
            crossover([1], [1, 2], [1])

    def test_result_helpers(self):
        r = result(10.0, bootstraps=5)
        assert r.speedup_over(result(20.0)) == pytest.approx(2.0)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in out and "4.25" in out

    def test_format_series_columns(self):
        out = format_series("F", "x", [1, 2], {"s1": [1.0, 2.0], "s2": [3.0, 4.0]})
        assert "s1" in out and "s2" in out and "4.00" in out

    def test_paper_comparison_ratio(self):
        out = paper_comparison("C", ["k"], [10.0], [12.0])
        assert "1.20" in out

    def test_paper_comparison_validates_lengths(self):
        with pytest.raises(ValueError):
            paper_comparison("C", ["a"], [1.0], [1.0, 2.0])
