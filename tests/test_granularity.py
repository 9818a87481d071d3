"""Tests for the off-load granularity governor."""

import pytest

from repro.core.granularity import GranularityGovernor
from repro.workloads.taskspec import LoopSpec, TaskSpec

US = 1e-6


def task(function="f", spe_us=96.0, ppe_us=130.0):
    return TaskSpec(
        function=function,
        spe_time=spe_us * US,
        ppe_time=ppe_us * US,
        naive_spe_time=2 * spe_us * US,
    )


def test_first_offload_is_optimistic():
    g = GranularityGovernor(t_comm=0.35 * US)
    d = g.decide(task())
    assert d.offload and d.reason == "optimistic"


def test_coarse_task_keeps_offloading():
    g = GranularityGovernor(t_comm=0.35 * US)
    t = task(spe_us=96, ppe_us=130)
    g.decide(t)
    g.record_spe("f", 96 * US)
    d = g.decide(t)
    assert d.offload and d.reason == "pass"


def test_fine_task_throttled_after_measurement():
    g = GranularityGovernor(t_comm=0.35 * US)
    t = task(spe_us=8, ppe_us=4)
    g.decide(t)
    g.record_spe("f", 8 * US)
    d = g.decide(t)
    assert not d.offload and d.reason == "fail"
    assert g.throttled == 1


def test_t_code_counts_against_offload():
    g = GranularityGovernor(t_comm=0.35 * US)
    t = task(spe_us=96, ppe_us=100)
    g.decide(t)
    g.record_spe("f", 96 * US)
    # Without code cost it passes; with a large code load it fails.
    assert g.decide(t, t_code=0.0).offload
    assert not g.decide(t, t_code=50 * US).offload


def test_communication_cost_in_test():
    # t_spe + 2 t_comm must be under t_ppe.
    g = GranularityGovernor(t_comm=10 * US)
    t = task(spe_us=96, ppe_us=100)
    g.decide(t)
    g.record_spe("f", 96 * US)
    assert not g.decide(t).offload


def test_reprobe_after_streak():
    g = GranularityGovernor(t_comm=0.35 * US, reprobe_interval=5)
    t = task(spe_us=8, ppe_us=4)
    g.decide(t)
    g.record_spe("f", 8 * US)
    reasons = [g.decide(t).reason for _ in range(5)]
    assert reasons[:4] == ["fail"] * 4
    assert reasons[4] == "reprobe"


def test_reprobe_recovers_from_stale_measurement():
    """A transiently slow SPE measurement must not throttle forever."""
    g = GranularityGovernor(t_comm=0.35 * US, ewma_alpha=1.0, reprobe_interval=3)
    t = task(spe_us=96, ppe_us=130)
    g.decide(t)
    g.record_spe("f", 200 * US)  # contaminated sample: fails the test
    assert not g.decide(t).offload
    assert not g.decide(t).offload
    d = g.decide(t)
    assert d.reason == "reprobe"
    g.record_spe("f", 96 * US)  # fresh, sane measurement
    assert g.decide(t).reason == "pass"


def test_disabled_always_offloads():
    g = GranularityGovernor(t_comm=0.35 * US, enabled=False)
    t = task(spe_us=8, ppe_us=4)
    g.decide(t)
    g.record_spe("f", 8 * US)
    assert g.decide(t).reason == "disabled"
    assert g.throttled == 0


def test_per_function_isolation():
    g = GranularityGovernor(t_comm=0.35 * US)
    fine = task(function="fine", spe_us=8, ppe_us=4)
    coarse = task(function="coarse", spe_us=96, ppe_us=130)
    g.decide(fine)
    g.decide(coarse)
    g.record_spe("fine", 8 * US)
    g.record_spe("coarse", 96 * US)
    assert not g.decide(fine).offload
    assert g.decide(coarse).offload


def test_ewma_smooths_measurements():
    g = GranularityGovernor(t_comm=0.35 * US, ewma_alpha=0.1)
    g.record_spe("f", 100 * US)
    g.record_spe("f", 200 * US)
    # 0.9 * 100 + 0.1 * 200 = 110 us
    assert g._measured_spe["f"] == pytest.approx(110 * US)


def test_invalid_construction():
    with pytest.raises(ValueError):
        GranularityGovernor(t_comm=-1.0)
    with pytest.raises(ValueError):
        GranularityGovernor(t_comm=0.0, ewma_alpha=0.0)
    with pytest.raises(ValueError):
        GranularityGovernor(t_comm=0.0, reprobe_interval=0)
