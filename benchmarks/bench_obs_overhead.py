"""Observability overhead — tracing off must be (nearly) free.

The span/metrics layer is threaded through every scheduler hot path
(off-load dispatch, granularity test, LLP split, MGPS window).  Its
contract is that the *disabled* path costs a single attribute check per
emit site and no allocation, so leaving the instrumentation compiled-in
does not tax normal experiment runs.

This benchmark times the same Figure-8-style MGPS run four ways —
observability off, tracer+metrics on, metrics only, and under the
wall-time layer ledger — runs every leg once untimed to warm up, then
times the legs in interleaved rounds (every leg once per round, so a
burst of host noise lands on all legs of the round it hits) and gates
the median over rounds of each leg's wall time divided by that round's
*off* time.  The summary goes to the *tracked* repo-root
``BENCH_obs.json`` baseline, whose only writer this module is: each
``*_ratio_wall`` field is that median per-round ratio and each
``*_seconds_wall`` field the leg's median wall time (raw per-round
wall times go to gitignored ``benchmarks/out/BENCH_obs_raw.json``).
``repro bench --check`` cross-checks the committed summary's
deterministic fields against the core ladder.  The acceptance bar is
that the disabled path stays within 2% of a fully stripped run; since
the instrumentation cannot be stripped at runtime, we assert the off
path against the on path (off must be cheaper or equal, within 2%, in
the median round) and record the absolute numbers for cross-PR
comparison.  The ledger leg additionally proves that
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

import statistics
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
# Timed rounds after the warm-up pass; each runs every leg once.
ROUNDS = 7
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


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


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
        # One untimed pass of every leg first, so no timed round carries
        # first-run warm-up (imports, caches, allocator).
        for leg in legs.values():
            leg()
        samples = {name: [] for name in legs}
        results = {}
        for _ in range(ROUNDS):
            for name, leg in legs.items():
                wall, results[name] = _timed(leg)
                samples[name].append(wall)
        return samples, results

    samples, results = run_once(benchmark, measure)
    off, on, ledger, causal = (
        results[name] for name in ("off", "on", "ledger", "causal")
    )
    wall = {name: statistics.median(s) for name, s in samples.items()}
    # Median over rounds of each leg's wall time over the same round's
    # off time: a noisy round moves one ratio, not the gate.
    ratio = {
        name: statistics.median(
            t / t_off for t, t_off in zip(s, samples["off"])
        )
        for name, s in samples.items()
    }

    # Observability must not perturb the simulation...
    assert off.makespan == on.makespan
    assert off.offloads == on.offloads
    assert off.llp_invocations == on.llp_invocations
    # ...and the disabled path must not cost more than the enabled one
    # (2% slack for timer noise on an already-fast run).
    assert 1.0 <= ratio["on"] * 1.02

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
    assert ratio["ledger"] <= LEDGER_CEILING

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
                "reps": ROUNDS,
            },
            "makespan_s": off.makespan,
            "offloads": off.offloads,
            "off_seconds_wall": wall["off"],
            "on_seconds_wall": wall["on"],
            "metrics_only_seconds_wall": wall["metrics_only"],
            "ledger_seconds_wall": wall["ledger"],
            "causal_seconds_wall": wall["causal"],
            "on_over_off_ratio_wall": ratio["on"],
            "metrics_over_off_ratio_wall": ratio["metrics_only"],
            "ledger_over_off_ratio_wall": ratio["ledger"],
            "causal_over_off_ratio_wall": ratio["causal"],
        },
        root=True,
    )
    record_json(
        "BENCH_obs_raw",
        {f"{k}_samples_wall": v for k, v in samples.items()},
    )
