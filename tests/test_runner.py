"""End-to-end tests of the experiment runner."""

import pytest

from repro import (
    BladeParams,
    Workload,
    edtlp,
    linux,
    mgps,
    run_experiment,
    static_hybrid,
)


def small_wl(b=2):
    return Workload(bootstraps=b, tasks_per_bootstrap=60)


def test_runs_and_reports_fields():
    r = run_experiment(edtlp(), small_wl())
    assert r.scheduler == "edtlp"
    assert r.bootstraps == 2
    assert r.makespan > 0
    assert r.raw_makespan * r.scale == pytest.approx(r.makespan)
    assert r.offloads == 120
    assert len(r.per_spe_busy) == 8
    assert 0 <= r.spe_utilization <= 1
    assert 0 <= r.ppe_occupancy <= 1


def test_deterministic_given_seed():
    a = run_experiment(mgps(), small_wl())
    b = run_experiment(mgps(), small_wl())
    assert a.makespan == b.makespan
    assert a.offloads == b.offloads


def test_default_process_counts():
    assert run_experiment(edtlp(), small_wl(2)).n_processes == 2
    assert run_experiment(edtlp(), small_wl(12)).n_processes == 8
    assert run_experiment(static_hybrid(4), small_wl(12)).n_processes == 2
    assert run_experiment(static_hybrid(2), small_wl(12)).n_processes == 4


def test_explicit_process_count():
    r = run_experiment(edtlp(n_processes=3), small_wl(6))
    assert r.n_processes == 3


def test_linux_process_count_capped_by_spes():
    with pytest.raises(ValueError, match="pins one SPE"):
        run_experiment(linux(n_processes=9), small_wl(9))


def test_more_workers_help_edtlp():
    wl = small_wl(8)
    r1 = run_experiment(edtlp(n_processes=1), wl)
    r8 = run_experiment(edtlp(n_processes=8), wl)
    assert r8.makespan < 0.5 * r1.makespan


def test_dual_cell_blade_nearly_doubles_throughput():
    wl = Workload(bootstraps=16, tasks_per_bootstrap=150)
    one = run_experiment(edtlp(), wl)
    two = run_experiment(edtlp(), wl, blade=BladeParams(n_cells=2))
    assert one.makespan / two.makespan > 1.6


def test_schedulers_see_identical_workload():
    wl = small_wl(2)
    run_experiment(edtlp(), wl)
    t0 = wl.trace(0)
    run_experiment(linux(), wl)
    assert wl.trace(0) is t0  # traces cached, never regenerated


def test_spec_validation():
    with pytest.raises(ValueError):
        edtlp(n_processes=0)
    with pytest.raises(ValueError):
        static_hybrid(0)
    from repro.core.schedulers import SchedulerSpec
    with pytest.raises(ValueError):
        SchedulerSpec(kind="bogus")


def test_spec_names():
    assert edtlp().name == "edtlp"
    assert static_hybrid(4).name == "edtlp-llp4"
    assert mgps(label="custom").name == "custom"


def test_makespan_scaled_to_paper_seconds():
    # One bootstrap at any compression lands near the 28.46 s anchor.
    r = run_experiment(edtlp(n_processes=1), Workload(1, tasks_per_bootstrap=200))
    assert 26 < r.makespan < 31


def test_top_level_api_surface():
    """The public names a downstream user imports must exist."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
