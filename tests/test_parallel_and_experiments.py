"""Tests for the experiment harness API."""

from repro.analysis import (
    SWEEP_LARGE,
    SWEEP_SMALL,
    figure_sweep,
)
from repro.core.schedulers import edtlp


class TestExperimentHarness:
    def test_sweep_constants_shape(self):
        assert SWEEP_SMALL[0] == 1 and SWEEP_SMALL[-1] == 16
        assert SWEEP_LARGE[0] == 1 and SWEEP_LARGE[-1] == 128
        assert list(SWEEP_SMALL) == sorted(SWEEP_SMALL)
        assert list(SWEEP_LARGE) == sorted(SWEEP_LARGE)

    def test_figure_sweep_default_curves(self):
        result = figure_sweep((1, 2), tasks_per_bootstrap=60)
        assert set(result.series) == {
            "MGPS", "EDTLP-LLP2", "EDTLP-LLP4", "EDTLP"
        }
        assert result.xs == [1, 2]
        assert all(len(v) == 2 for v in result.series.values())

    def test_figure_sweep_custom_schedulers(self):
        result = figure_sweep(
            (1,),
            schedulers={"only": edtlp()},
            tasks_per_bootstrap=60,
            name="custom",
        )
        assert list(result.series) == ["only"]
        assert result.name == "custom"

    def test_render_contains_everything(self):
        result = figure_sweep((1,), schedulers={"x": edtlp()},
                              tasks_per_bootstrap=60, name="My Figure")
        text = result.render()
        assert "My Figure" in text and "x" in text

    def test_results_attached(self):
        result = figure_sweep((1,), schedulers={"x": edtlp()},
                              tasks_per_bootstrap=60)
        assert result.results["x"][0].bootstraps == 1
