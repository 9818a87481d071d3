"""Observability overhead — tracing off must be (nearly) free.

The span/metrics layer is threaded through every scheduler hot path
(off-load dispatch, granularity test, LLP split, MGPS window).  Its
contract is that the *disabled* path costs a single attribute check per
emit site and no allocation, so leaving the instrumentation compiled-in
does not tax normal experiment runs.

This benchmark times the same Figure-8-style MGPS run four ways —
observability off, tracer+metrics on, metrics only, and under the
wall-time layer ledger — runs every leg once untimed to warm up, takes
the minimum of several repetitions each, and records the summary to
the *tracked* repo-root ``BENCH_obs.json`` baseline, whose only writer
this module is (raw per-repetition wall times go to gitignored
``benchmarks/out/BENCH_obs_raw.json``).  ``repro bench --check``
cross-checks the committed summary's deterministic fields against the
core ladder.  The acceptance bar is that the disabled path stays
within 2% of a fully stripped run; since the instrumentation cannot be
stripped at runtime, we assert the off path against the on path (off
must be meaningfully cheaper or equal) and record the absolute numbers
for cross-PR comparison.  The ledger leg additionally proves that
measuring from outside never perturbs: a run under a
:class:`repro.obs.Ledger` must leave the schedule — makespan, off-load
count, the digest maps and the kernel event count — bit-identical, and
its wall cost stays within ``LEDGER_CEILING`` of the plain run.

A fifth, *causal* leg runs with the tracer attached and then folds the
trace into off-load span trees plus an aggregate critical-path
breakdown (:mod:`repro.obs.causal` / :mod:`repro.obs.attribution`).
Collection is post-hoc, so the run's digests must stay bit-identical
to the off path; the fold's wall cost is recorded as
``causal_over_off_ratio_wall``.
"""

import time

from conftest import run_once

from repro.cell.params import BladeParams
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.obs import Ledger, MetricsRegistry, build_offload_trees, critical_path
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload

BOOTSTRAPS = 3
TASKS = 200
REPS = 3
# Wall-time ceiling of the ledger leg over the plain run.
LEDGER_CEILING = 1.20


def _run(tracer=None, metrics=None):
    wl = Workload(bootstraps=BOOTSTRAPS, tasks_per_bootstrap=TASKS, seed=0)
    return run_experiment(
        mgps(), wl, blade=BladeParams(), seed=0,
        tracer=tracer, metrics=metrics,
    )


def _ledger_run():
    """Plain run recorded under the wall-time layer ledger."""
    ledger = Ledger()
    with ledger.run("fig8"):
        result = _run()
    return result, ledger.report()


def _causal_run():
    """Traced run + full causal fold — the priced end-to-end pipeline."""
    tracer = Tracer(enabled=True)
    result = _run(tracer=tracer)
    roots = build_offload_trees(tracer)
    paths = [critical_path(r) for r in roots]
    return result, roots, paths


def _best_of(reps, fn):
    """Minimum wall time over ``reps`` runs (min filters scheduler noise)."""
    samples = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return min(samples), samples, result


def test_obs_overhead(benchmark, record_json):
    legs = {
        "off": _run,
        "on": lambda: _run(tracer=Tracer(enabled=True),
                           metrics=MetricsRegistry()),
        "metrics_only": lambda: _run(metrics=MetricsRegistry()),
        "ledger": _ledger_run,
        "causal": _causal_run,
    }

    def measure():
        # One untimed pass of every leg first, so no leg's best of
        # ``REPS`` carries first-run warm-up (imports, caches, allocator).
        for leg in legs.values():
            leg()
        return {name: _best_of(REPS, leg) for name, leg in legs.items()}

    timed = run_once(benchmark, measure)
    off_wall, _, off = timed["off"]
    on_wall, _, on = timed["on"]
    metrics_wall = timed["metrics_only"][0]
    ledger_wall, _, ledger = timed["ledger"]
    causal_wall, _, causal = timed["causal"]
    raw = {name: samples for name, (_, samples, _) in timed.items()}

    # Observability must not perturb the simulation...
    assert off.makespan == on.makespan
    assert off.offloads == on.offloads
    assert off.llp_invocations == on.llp_invocations
    # ...and the disabled path must not cost more than the enabled one
    # (2% slack for timer noise on an already-fast run).
    assert off_wall <= on_wall * 1.02

    # The ledger gate: timing the layers from outside must not change
    # the schedule.  Digest maps are bit-identical, the ledger saw every
    # kernel event, and its wall cost stays under the ceiling.
    ledger_result, ledger_report = ledger
    assert off.makespan == ledger_result.makespan
    assert off.offloads == ledger_result.offloads
    assert off.result_digest == ledger_result.result_digest
    assert off.bootstrap_digests == ledger_result.bootstrap_digests
    assert off.events_processed == ledger_result.events_processed
    assert ledger_report["counters"]["sim.events"] == off.events_processed
    assert ledger_wall <= off_wall * LEDGER_CEILING

    # The causal fold is post-hoc: tracing + tree assembly must leave
    # every deterministic outcome bit-identical to the stripped run,
    # and the trees must cover every recorded off-load.
    causal_result, causal_roots, causal_paths = causal
    assert off.makespan == causal_result.makespan
    assert off.offloads == causal_result.offloads
    assert off.result_digest == causal_result.result_digest
    assert off.bootstrap_digests == causal_result.bootstrap_digests
    assert off.events_processed == causal_result.events_processed
    assert len(causal_roots) == off.offloads
    assert all(len(p) >= 2 for p in causal_paths)

    # Summary -> the tracked repo-root baseline; raw samples -> out/.
    record_json(
        "BENCH_obs",
        {
            "workload": {
                "scheduler": "mgps",
                "bootstraps": BOOTSTRAPS,
                "tasks_per_bootstrap": TASKS,
                "reps": REPS,
            },
            "makespan_s": off.makespan,
            "offloads": off.offloads,
            "off_seconds_wall": off_wall,
            "on_seconds_wall": on_wall,
            "metrics_only_seconds_wall": metrics_wall,
            "ledger_seconds_wall": ledger_wall,
            "causal_seconds_wall": causal_wall,
            "on_over_off_ratio_wall": on_wall / off_wall,
            "metrics_over_off_ratio_wall": metrics_wall / off_wall,
            "ledger_over_off_ratio_wall": ledger_wall / off_wall,
            "causal_over_off_ratio_wall": causal_wall / off_wall,
        },
        root=True,
    )
    record_json(
        "BENCH_obs_raw",
        {f"{k}_samples_wall": v for k, v in raw.items()},
    )
