"""The tracked scheduler ladder — the repo's benchmark trajectory.

Times serial, EDTLP, static EDTLP-LLP4 and MGPS on the Figure-8-style
workload (few bootstraps, many tasks: the regime where task-level
parallelism alone cannot fill the SPEs and MGPS must add loop-level
parallelism) and records the makespans, off-load counts and
speedups to ``benchmarks/out/BENCH_core.json``.

The same payload is the tracked repo-root ``BENCH_core.json``, written
only by ``repro bench --write``.  Every non-``_wall`` field is
deterministic, so the committed file is a regression gate: ``repro
bench --check`` re-measures and diffs.  A diff in that file inside a PR
is a deliberate statement that scheduler behavior changed.
"""

from conftest import run_once

from repro.obs.bench import measure_core


def test_scheduler_ladder(benchmark, record_json):
    payload = run_once(benchmark, measure_core)

    rows = payload["schedulers"]
    speedup = payload["speedup_over_serial"]
    # The paper's ordering must hold on this workload: parallelism helps,
    # and the adaptive scheduler beats pure task-level parallelism.
    assert rows["edtlp"]["makespan_s"] < rows["serial"]["makespan_s"]
    assert rows["mgps"]["makespan_s"] <= rows["edtlp"]["makespan_s"]
    assert rows["mgps"]["llp_invocations"] > 0, (
        "MGPS never engaged loop-level parallelism on the Figure-8 "
        "workload; the U estimator is broken"
    )
    assert speedup["mgps"] >= 1.0

    # Per-LoopSchedule rows on the always-LLP hybrid.  The static row is
    # the same spec as the ladder's edtlp-llp4 row, so the two must agree
    # exactly; every schedule must actually run loops.
    schedules = payload["llp_schedules"]
    assert set(schedules) >= {"static", "dynamic", "guided", "adaptive"}
    assert schedules["static"]["makespan_s"] == rows["edtlp-llp4"]["makespan_s"]
    for name, row in schedules.items():
        assert row["llp_invocations"] > 0, (
            f"loop schedule {name!r} never ran a parallel loop"
        )

    record_json("BENCH_core", payload)
