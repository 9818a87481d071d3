"""Kernel throughput — the wall-clock floor the perf gate enforces.

The other benchmarks track *simulated* outcomes (makespans, SLO grids);
this one tracks how fast the simulator itself turns the crank: events
per wall-second for the Figure-8 MGPS run and events- and
jobs-per-wall-second for the serving scenario.  The grid comes from
:func:`repro.obs.bench.measure_throughput` (best-of-N wall time per
scenario) and is recorded to ``benchmarks/out/BENCH_perf.json``; the
tracked repo-root ``BENCH_perf.json`` is written only by ``repro bench
--write``.

Unlike the other baselines, the wall-rate fields here are not merely
informational: ``repro bench --check`` re-measures the grid and enforces
each committed ``*_per_sec_wall`` value as a one-sided floor — the
current rate may be faster without limit, but a slow-down beyond the
regression tolerance (default 30%, see
:data:`repro.obs.bench.PERF_REGRESSION_TOLERANCE`) fails the gate.
Deterministic fields (event and job counts) are compared exactly, like
any other baseline.  Refresh — and thereby *ratchet* — the floors with
``repro bench --write`` on a quiet machine and commit the diff.
"""

from conftest import run_once

from repro.obs.bench import measure_throughput


def test_throughput_grid(benchmark, record_json):
    grid = run_once(benchmark, measure_throughput)

    scenarios = grid["scenarios"]
    # Both scenarios must actually have turned the crank...
    assert scenarios["fig8"]["events"] > 0
    assert scenarios["serve"]["events"] > 0
    assert scenarios["serve"]["jobs"] > 0
    # ...and produced finite, positive wall rates.
    for scen in scenarios.values():
        for key, value in scen.items():
            if key.endswith("_per_sec_wall"):
                assert value > 0.0

    record_json("BENCH_perf", grid)
