"""The tracked benchmark trajectory: measurement, baselines, gates.

The repo keeps six committed ``BENCH_*.json`` baselines at its root.
Five of them are the gated sections of :data:`SECTIONS` — the scheduler
ladder (``core``), the fault-tolerance ladder (``faults``), the serving
SLO grid (``serve``), the workflow-DAG grid (``dag``) and the wall-clock
throughput grid (``perf``) — each re-measured by ``repro bench`` and
written only by ``repro bench --write``.  The sixth, :data:`OBS`
(``BENCH_obs.json``, the observability-overhead summary), is written
only by ``benchmarks/bench_obs_overhead.py``; the gate cross-checks its
deterministic fields against the core ladder.

Simulated quantities are deterministic (same seed, same arithmetic), so
a drift in any non-``_wall`` field is a real behavior change — that is
the regression gate ``repro bench --check`` enforces.  Wall-clock fields
carry a ``_wall`` suffix (:func:`is_wall_field`) and are **informational
only** in :func:`compare` — never diffed against the baseline.

The one exception is deliberate and one-sided: the ``*_per_sec_wall``
throughput rates in ``BENCH_perf.json`` are enforced as *floors* by
:func:`check_perf_floors` — the current rate must stay above
``baseline * (1 - tolerance)`` with a generous default tolerance
(:data:`PERF_REGRESSION_TOLERANCE`, 30%) that absorbs machine noise but
catches order-of-magnitude hot-path regressions.  The floor *ratchets*:
``repro bench --write`` records the current machine's throughput, so
every landed speedup raises the bar for the next change.  Tune the
tolerance per invocation (``repro bench --check --perf-tolerance 0.5``).

Each section's ``measure`` produces the current numbers, :func:`compare`
diffs a payload against a committed baseline with per-metric
tolerances, and :func:`check_baselines` runs the whole gate.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

# NOTE: repro.core imports repro.obs at module load (for NULL_REGISTRY),
# so this module must not import repro.core at the top level; the
# scheduler/runner imports happen inside the functions that need them.
from ..invariants import Violation, conservation, digest_diff
from .metrics import stable_round

__all__ = [
    "Section",
    "SECTIONS",
    "OBS",
    "DEFAULT_TOLERANCES",
    "PERF_REGRESSION_TOLERANCE",
    "is_wall_field",
    "find_repo_root",
    "core_schedulers",
    "measure_core",
    "measure_dag",
    "measure_faults",
    "measure_serve",
    "measure_throughput",
    "PERF_SERVE_DURATION_S",
    "PERF_SERVE_ARRIVAL_RATE",
    "check_perf_floors",
    "stable_payload",
    "write_baseline",
    "flatten",
    "compare",
    "semantic_violations",
    "check_baselines",
]

# The workload every tracked benchmark shares (Figure-8-style: few
# bootstraps, many tasks -> MGPS must fall back on loop parallelism).
BOOTSTRAPS = 3
TASKS = 200
SEED = 0

# The serving grid: every tracked dispatch policy, elastic and fixed.
SERVE_POLICIES = ("static-block", "least-loaded", "work-stealing")
SERVE_DURATION_S = 1800.0
SERVE_ARRIVAL_RATE = 0.05

# The throughput grid's serving scale: a horizon long enough that the
# fleet completes >= 10^4 jobs, so jobs-per-wall-second measures the
# steady-state dispatch path rather than JobCompiler warm-up (at the
# SLO-grid scale above, six template compilations dominate the wall
# time and the rate says nothing about the kernel).  The SLO grid and
# its digest oracle stay at the small scale.
PERF_SERVE_DURATION_S = 72000.0
PERF_SERVE_ARRIVAL_RATE = 0.25

# Relative tolerance per flattened metric path suffix.  Simulated values
# are bit-deterministic, but rounding through ``stable_round`` and JSON
# can move the last digit, so "exact" is a tiny epsilon, not 0.0.
_EXACT = 1e-9
DEFAULT_TOLERANCES = {
    "makespan_s": _EXACT,
    "spe_utilization": _EXACT,
    "offloads": 0.0,
    "llp_invocations": 0.0,
    "ppe_fallbacks": 0.0,
    "speedup_over_serial": 1e-6,
}
_DEFAULT_TOL = _EXACT

# Throughput floor: a ``*_per_sec_wall`` rate in BENCH_perf.json may not
# fall below ``baseline * (1 - tolerance)``.  30% absorbs host noise
# while catching real hot-path regressions; override per call
# (``check_perf_floors(..., tolerance=...)``, ``repro bench --check
# --perf-tolerance``).
PERF_REGRESSION_TOLERANCE = 0.30


def is_wall_field(path: str) -> bool:
    """True for wall-clock field names/paths (leaf ends with ``_wall``).

    Wall-clock fields are informational only: :func:`compare` never
    diffs them and :func:`stable_payload` serializes them verbatim.
    """
    return path.rsplit(".", 1)[-1].endswith("_wall")


def find_repo_root(start: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Walk up from ``start`` to the directory holding the baselines.

    Recognizes the repo root by ``.git`` or an existing baseline file;
    falls back to the package checkout root (three levels above this
    module: ``src/repro/obs`` -> repo).
    """
    here = pathlib.Path(start or pathlib.Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if ((candidate / ".git").exists()
                or (candidate / SECTIONS["core"].file).exists()):
            return candidate
    return pathlib.Path(__file__).resolve().parents[3]


def _verdict(identical: bool) -> str:
    return "identical" if identical else "DIVERGED"


def core_schedulers() -> List[Tuple[str, "SchedulerSpec"]]:
    """The tracked scheduler ladder, slowest first."""
    from ..core.schedulers import edtlp, mgps, static_hybrid

    return [
        ("serial", edtlp(n_processes=1, label="serial")),
        ("edtlp", edtlp()),
        ("edtlp-llp4", static_hybrid(4)),
        ("mgps", mgps()),
    ]


def measure_core(
    bootstraps: int = BOOTSTRAPS,
    tasks: int = TASKS,
    seed: int = SEED,
    time_source=time.perf_counter,
) -> Dict[str, Any]:
    """Run the scheduler ladder once; returns the ``BENCH_core`` payload.

    All fields are deterministic except the per-scheduler
    ``seconds_wall`` timings.
    """
    from ..core.runner import run_experiment
    from ..workloads.traces import Workload

    rows: Dict[str, Dict[str, Any]] = {}
    for name, spec in core_schedulers():
        wl = Workload(bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed)
        t0 = time_source()
        result = run_experiment(spec, wl, seed=seed)
        wall = time_source() - t0
        rows[name] = {
            "makespan_s": result.makespan,
            "spe_utilization": result.spe_utilization,
            "offloads": result.offloads,
            "ppe_fallbacks": result.ppe_fallbacks,
            "llp_invocations": result.llp_invocations,
            "seconds_wall": wall,
        }
    serial = rows["serial"]["makespan_s"]

    # One row per registered loop schedule on the always-LLP hybrid
    # (EDTLP-LLP4), the scheduler whose makespan is most sensitive to
    # iteration distribution.  The ``static`` row must reproduce the
    # ladder's edtlp-llp4 row exactly — same spec, default schedule.
    from dataclasses import replace

    from ..core.llp import LLPConfig, available_loop_schedules
    from ..core.schedulers import static_hybrid

    schedule_rows: Dict[str, Dict[str, Any]] = {}
    for sched in available_loop_schedules():
        wl = Workload(bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed)
        spec = static_hybrid(
            4, llp_config=replace(LLPConfig(), schedule=sched.name)
        )
        t0 = time_source()
        result = run_experiment(spec, wl, seed=seed)
        wall = time_source() - t0
        schedule_rows[sched.name] = {
            "makespan_s": result.makespan,
            "llp_invocations": result.llp_invocations,
            "seconds_wall": wall,
        }

    return {
        "workload": {
            "bootstraps": bootstraps,
            "tasks_per_bootstrap": tasks,
            "seed": seed,
        },
        "schedulers": rows,
        "speedup_over_serial": {
            name: serial / rows[name]["makespan_s"] for name in rows
        },
        "llp_schedules": schedule_rows,
    }


def _core_summary(p: Dict[str, Any]) -> List[str]:
    return [
        f"{name:>11}: makespan {row['makespan_s']:8.2f} s  "
        f"({p['speedup_over_serial'][name]:4.2f}x serial), "
        f"{row['offloads']:4d} off-loads, {row['llp_invocations']:3d} LLP"
        for name, row in p["schedulers"].items()
    ] + [
        f"{'llp/' + name:>11}: makespan {row['makespan_s']:8.2f} s  "
        f"(edtlp-llp4), {row['llp_invocations']:3d} LLP"
        for name, row in p.get("llp_schedules", {}).items()
    ]


def measure_faults(
    bootstraps: int = BOOTSTRAPS,
    tasks: int = TASKS,
    seed: int = SEED,
    time_source=time.perf_counter,
) -> Dict[str, Any]:
    """Measure fault-handling overhead; returns the ``BENCH_faults`` payload.

    Three tracked MGPS runs of the shared workload:

    * ``fault_free`` — the plain fast path (no fault machinery at all);
    * ``zero_fault_tolerant`` — a *null* fault plan, so every off-load
      goes through the tolerant retry/watchdog path but no fault ever
      fires: its ``overhead_ratio`` over the fault-free makespan is the
      cost of the tolerance machinery itself;
    * ``faulty`` — a fixed small storm (two SPE kills, transient
      off-load and DMA error rates) exercising retries, blacklisting and
      MGPS degradation.

    A fourth tracked section, ``fleet_faults``, covers the serving
    layer's node-tier resilience: a small deterministic chaos grid
    (seeded storm plans under hedging + circuit breaker) plus one
    deadline-enforcement cell.  Its gated invariants are zero lost
    jobs and bit-identical per-job digests versus the fault-free run.

    ``digest_match`` fields record the headline invariant: application
    results are bit-identical to the fault-free run.  All fields are
    deterministic except ``seconds_wall``.
    """
    from ..core.runner import run_experiment
    from ..core.schedulers import mgps
    from ..faults import FaultPlan, SPEKill
    from ..workloads.traces import Workload

    def one(faults):
        wl = Workload(
            bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed
        )
        t0 = time_source()
        result = run_experiment(mgps(), wl, seed=seed, faults=faults)
        wall = time_source() - t0
        return result, wall

    clean, clean_wall = one(None)
    tolerant, tolerant_wall = one(FaultPlan(seed=seed))
    storm_plan = FaultPlan(
        seed=seed,
        offload_fail_rate=0.05,
        dma_error_rate=0.02,
        spe_kills=(SPEKill(spe=2, time=2e-4), SPEKill(spe=5, time=4e-4)),
    )
    faulty, faulty_wall = one(storm_plan)

    return {
        "workload": {
            "bootstraps": bootstraps,
            "tasks_per_bootstrap": tasks,
            "seed": seed,
            "scheduler": "mgps",
        },
        "fault_free": {
            "makespan_s": clean.makespan,
            "offloads": clean.offloads,
            "seconds_wall": clean_wall,
        },
        "zero_fault_tolerant": {
            "makespan_s": tolerant.makespan,
            "offloads": tolerant.offloads,
            "overhead_ratio": tolerant.makespan / clean.makespan,
            "digest_match": tolerant.result_digest == clean.result_digest,
            "offload_retries": int(tolerant.extras.get("offload_retries", 0)),
            "retry_fallbacks": int(tolerant.extras.get("retry_fallbacks", 0)),
            "seconds_wall": tolerant_wall,
        },
        "faulty": {
            "makespan_s": faulty.makespan,
            "slowdown_ratio": faulty.makespan / clean.makespan,
            "digest_match": faulty.result_digest == clean.result_digest,
            "spe_kills": int(faulty.extras.get("spe_kills", 0)),
            "spe_blacklists": int(faulty.extras.get("spe_blacklists", 0)),
            "offload_retries": int(faulty.extras.get("offload_retries", 0)),
            "retry_fallbacks": int(faulty.extras.get("retry_fallbacks", 0)),
            "dma_errors": int(faulty.extras.get("dma_errors", 0)),
            "live_spes": int(faulty.extras.get("live_spes", 0)),
            "seconds_wall": faulty_wall,
        },
        "fleet_faults": measure_fleet_faults(seed=seed,
                                             time_source=time_source),
    }


def measure_fleet_faults(
    seed: int = SEED,
    time_source=time.perf_counter,
) -> Dict[str, Any]:
    """The tracked ``fleet_faults`` cell of the ``BENCH_faults`` payload.

    A small deterministic chaos soak (3 seeded storm plans, hedging and
    circuit breaker enabled) plus one deadline-enforcement run.  Gated
    invariants: zero lost jobs across every plan, digest maps
    bit-identical to the fault-free run, and deadline aborts firing in
    the enforcement cell.  All fields deterministic except
    ``seconds_wall``.
    """
    from ..serve import (
        BladeSlow,
        FleetFaultPlan,
        JobTemplate,
        ResilienceConfig,
        ServeConfig,
        TenantSpec,
        run_service,
    )
    from ..serve.chaos import ChaosConfig, run_chaos

    t0 = time_source()
    soak = run_chaos(ChaosConfig(
        plans=3, seed=seed, mix="storm", duration_s=1800.0,
        arrival_rate=0.05, blades=4,
    ))
    # Deadline-enforcement cell: a tight-deadline tenant on a small
    # fleet with a permanent straggler, so shedding must engage.
    small = JobTemplate("small-bag", bootstraps=2, tasks_per_bootstrap=60,
                        variants=2)
    deadline_cfg = ServeConfig(
        tenants=(TenantSpec("deadline", small, arrival="poisson",
                            arrival_rate=0.08, deadline_s=120.0),),
        duration_s=1200.0,
        seed=seed,
        dispatch="least-loaded",
        min_blades=2,
        max_blades=2,
        queue_capacity=4096,
        faults=FleetFaultPlan(
            slows=(BladeSlow(blade=0, at=100.0, factor=4.0),), seed=seed
        ),
        resilience=ResilienceConfig(enforce_deadlines=True),
    )
    deadline_run = run_service(deadline_cfg)
    wall = time_source() - t0
    ds = deadline_run.summary
    return {
        "plans": soak.config.plans,
        "mix": soak.config.mix,
        "seed": soak.config.seed,
        "clean_completed": soak.clean_completed,
        "lost_jobs": sum(o.lost for o in soak.outcomes),
        "digests_identical": not any(
            v.check.startswith("digest.")
            for o in soak.outcomes for v in o.violations
        ),
        "invariants_ok": soak.ok,
        "hedges": soak.total_hedges,
        "hedge_wins": sum(o.hedge_wins for o in soak.outcomes),
        "breaker_cycles": soak.total_breaker_cycles,
        "worst_p99_s": max(o.p99_s for o in soak.outcomes),
        "deadline_aborts": ds["deadline_aborts"],
        "deadline_conservation_ok": not conservation(ds),
        "seconds_wall": wall,
    }


def _faults_summary(p: Dict[str, Any]) -> List[str]:
    zt, fa, ff = p["zero_fault_tolerant"], p["faulty"], p["fleet_faults"]
    return [
        f"     faults: zero-fault overhead {zt['overhead_ratio']:.4f}x, "
        f"faulty slowdown {fa['slowdown_ratio']:.2f}x "
        f"({fa['offload_retries']:.0f} retries, "
        f"{fa['live_spes']:.0f} live SPEs)",
        f"fleet-chaos: {ff['plans']} {ff['mix']} plans, "
        f"lost {ff['lost_jobs']}, "
        f"digests {_verdict(ff['digests_identical'])}, "
        f"{ff['hedges']} hedges, {ff['breaker_cycles']} breaker cycles, "
        f"{ff['deadline_aborts']} deadline aborts",
    ]


def measure_serve(
    seed: int = SEED,
    duration_s: float = SERVE_DURATION_S,
    arrival_rate: float = SERVE_ARRIVAL_RATE,
    time_source=time.perf_counter,
) -> Dict[str, Any]:
    """Run the serving grid; returns the ``BENCH_serve`` payload.

    One run per (dispatch policy, elasticity) cell on the default tenant
    mix, recording tail latency, goodput and rejection accounting, plus
    one digest-invariance sweep: with open-loop tenants (identical
    submission sets per policy), every dispatch policy must produce
    bit-identical per-job digest maps — ``digests_identical`` is that
    invariant.  All fields are deterministic except ``seconds_wall``.

    The ``breakdown`` block carries tracked latency-attribution rows
    (overall and per-tenant sojourn phase shares from one traced
    static-block fixed run) plus ``digest_invariant_under_tracing``,
    proving the causal collection never perturbs outcomes.
    """
    from ..serve import ServeConfig, default_tenants, run_service

    tenants = default_tenants(arrival_rate=arrival_rate)
    policies: Dict[str, Dict[str, Any]] = {}
    for dispatch in SERVE_POLICIES:
        cells: Dict[str, Any] = {}
        for label, autoscale in (("fixed", False), ("autoscale", True)):
            cfg = ServeConfig(
                tenants=tenants,
                duration_s=duration_s,
                seed=seed,
                dispatch=dispatch,
                autoscale=autoscale,
            )
            t0 = time_source()
            result = run_service(cfg)
            wall = time_source() - t0
            s = result.summary
            ups = sum(1 for _t, d, _n in result.autoscaler_events if d == "up")
            downs = sum(
                1 for _t, d, _n in result.autoscaler_events if d == "down"
            )
            cells[label] = {
                "completed": s["completed"],
                "rejected": s["rejected"],
                "deadline_misses": s["deadline_misses"],
                "latency_p50_s": s["latency_p50_s"],
                "latency_p95_s": s["latency_p95_s"],
                "latency_p99_s": s["latency_p99_s"],
                "goodput_jps": s["goodput_jps"],
                "rejection_rate": s["rejection_rate"],
                "makespan_s": result.makespan,
                "scale_ups": ups,
                "scale_downs": downs,
                "seconds_wall": wall,
            }
        policies[dispatch] = cells

    # Digest invariance: open-loop tenants only, so the submission sets
    # (and hence the digest-map key sets) are identical across policies
    # and the full maps must match key for key.  Closed-loop tenants
    # would only shrink/grow the key set, never change a shared key's
    # digest — the stricter full-map equality is the better gate.
    open_loop = tuple(t for t in tenants if t.arrival != "closed")
    digest_maps = []
    for dispatch in SERVE_POLICIES:
        cfg = ServeConfig(
            tenants=open_loop,
            duration_s=duration_s,
            seed=seed,
            dispatch=dispatch,
            autoscale=False,
        )
        digest_maps.append(run_service(cfg).digest_map())
    digests_identical = not any(
        digest_diff(digest_maps[0], m) for m in digest_maps[1:]
    )

    # Latency attribution rows: one traced static-block fixed run,
    # folded into causal job trees and aggregated per tenant.  The same
    # configuration is re-run untraced and its digest map compared —
    # attaching the tracer must never change a simulated outcome.
    from ..sim.trace import Tracer
    from .attribution import aggregate_breakdown
    from .causal import build_job_trees

    base_cfg = ServeConfig(
        tenants=tenants,
        duration_s=duration_s,
        seed=seed,
        dispatch=SERVE_POLICIES[0],
        autoscale=False,
    )
    tracer = Tracer(enabled=True)
    traced = run_service(base_cfg, tracer=tracer)
    untraced = run_service(base_cfg)
    full = aggregate_breakdown(build_job_trees(tracer))
    breakdown: Dict[str, Any] = {
        "completed": full["completed"],
        "lost": full.get("lost", 0),
        "digest_invariant_under_tracing":
            not digest_diff(untraced.digest_map(), traced.digest_map()),
    }
    if full["completed"]:
        breakdown["overall"] = {
            "jobs": full["overall"]["jobs"],
            "mean_sojourn_s": full["overall"]["mean_sojourn_s"],
            "phase_shares": full["overall"]["phase_shares"],
        }
        breakdown["tenants"] = {
            name: {
                "jobs": g["jobs"],
                "mean_sojourn_s": g["mean_sojourn_s"],
                "phase_shares": g["phase_shares"],
            }
            for name, g in full["tenants"].items()
        }
    else:
        breakdown["note"] = full.get("note", "no completed jobs")

    return {
        "workload": {
            "seed": seed,
            "duration_s": duration_s,
            "arrival_rate": arrival_rate,
            "tenants": [t.name for t in tenants],
        },
        "policies": policies,
        "digests_identical": digests_identical,
        "breakdown": breakdown,
    }


def _serve_summary(p: Dict[str, Any]) -> List[str]:
    return [
        f"{'serve/' + pol:>24}: p99 {c['fixed']['latency_p99_s']:6.1f} s, "
        f"goodput {c['fixed']['goodput_jps'] * 3600:5.1f} jobs/h, "
        f"{c['fixed']['completed']:3d} jobs (autoscale p99 "
        f"{c['autoscale']['latency_p99_s']:.1f} s)"
        for pol, c in p["policies"].items()
    ] + [f"      serve: cross-policy digests "
         f"{_verdict(p['digests_identical'])}"]


# The tracked workflow scale: a full autoMRE-sized bootstrap fan-out so
# the bootstop cell has room to demonstrate its >= 30% savings.
DAG_REPLICATES = 100
DAG_CONFLICT = 0.15


def measure_dag(
    seed: int = SEED,
    replicates: int = DAG_REPLICATES,
    conflict: float = DAG_CONFLICT,
    time_source=time.perf_counter,
) -> Dict[str, Any]:
    """Run the workflow-DAG grid; returns the ``BENCH_dag`` payload.

    Four cells over the raxml-style workflow (check -> infer ->
    bootstrap fan-out -> consensus):

    * ``cache-cold`` — one submission, bootstop off: the full fan-out
      runs, every stage is a cache miss;
    * ``cache-warm`` — two identical sequential submissions sharing a
      cache: the second must hit on *every* stage (``warm_hit_rate``)
      and reproduce the first's final digest bit for bit
      (``warm_digest_identical``) with a near-zero makespan;
    * ``bootstop`` — converging workload with the autoMRE monitor on:
      ``bootstop_savings`` is the cancelled fraction of the fan-out,
      gated at >= 30% with exact job conservation and zero losses;
    * ``bootstop-diverging`` — the control: independent random
      topologies (``conflict=1``) keep support values moving longer,
      so the monitor demonstrably needs more replicates and cancels a
      smaller share of the fan-out than the converging cell.

    All fields are deterministic except the per-cell ``seconds_wall``.
    """
    from ..serve import BootstopConfig, DagConfig, raxml_workflow, run_dag

    def cell(config: DagConfig) -> Tuple[Dict[str, Any], Any]:
        t0 = time_source()
        result = run_dag(config)
        wall = time_source() - t0
        s = result.serve.summary
        return {
            "admitted": s["admitted"],
            "completed": s["completed"],
            "cancelled": s["cancelled"],
            "aborted": s["deadline_aborts"],
            "lost": result.serve.lost_jobs,
            "conservation_ok": result.conservation_ok,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "cache_hit_rate": result.cache_hit_rate,
            "wasted_work_avoided_s": result.wasted_work_avoided_s,
            "bootstop_cancelled": result.bootstop_cancelled,
            "bootstop_savings": result.bootstop_savings,
            "makespan": stable_round(result.makespan),
            "final_digest": result.final_digests[0],
            "seconds_wall": wall,
        }, result

    grid: Dict[str, Dict[str, Any]] = {}
    cold_wf = raxml_workflow(replicates=replicates, conflict=conflict)
    grid["cache-cold"], cold = cell(DagConfig(workflow=cold_wf, seed=seed))

    warm_row, warm = cell(DagConfig(
        workflow=raxml_workflow(replicates=replicates, conflict=conflict),
        submissions=2, seed=seed,
    ))
    # The run-level hit rate mixes the cold first submission in; the
    # warm gate is the *second* workflow alone: every stage cached.
    rewf = warm.workflows[1]
    warm_row["warm_hit_rate"] = (
        rewf["cache_hits"] / rewf["stages_total"]
        if rewf["stages_total"] else 0.0
    )
    warm_row["warm_makespan"] = rewf["makespan_s"]
    warm_digest_identical = (
        warm.final_digests[0] == warm.final_digests[1]
        and warm.final_digests[0] == cold.final_digests[0]
    )
    warm_row["warm_digest_identical"] = warm_digest_identical
    grid["cache-warm"] = warm_row

    grid["bootstop"], stopped = cell(DagConfig(
        workflow=raxml_workflow(replicates=replicates, conflict=conflict),
        seed=seed, bootstop=BootstopConfig(),
    ))

    grid["bootstop-diverging"], _ = cell(DagConfig(
        workflow=raxml_workflow(replicates=replicates, conflict=1.0),
        seed=seed, bootstop=BootstopConfig(),
    ))

    return {
        "workload": {
            "seed": seed,
            "workflow": cold_wf.name,
            "replicates": replicates,
            "conflict": conflict,
            "stages": [st.name for st in cold_wf.stages],
            "bootstop": BootstopConfig().describe(),
        },
        "grid": grid,
        "bootstop_savings": stopped.bootstop_savings,
        "bootstop_saved_s": stable_round(stopped.bootstop_saved_s),
        "warm_hit_rate": warm_row["warm_hit_rate"],
        "warm_digest_identical": warm_digest_identical,
        "conservation_ok": all(
            row["conservation_ok"] for row in grid.values()
        ),
        "lost_jobs": sum(row["lost"] for row in grid.values()),
    }


def _dag_summary(p: Dict[str, Any]) -> List[str]:
    return [
        f"{'dag/' + name:>16}: {row['completed']:3d} done, "
        f"{row['cancelled']:3d} cancelled, "
        f"cache {row['cache_hit_rate']:.0%}, "
        f"makespan {row['makespan']:7.1f} s"
        for name, row in p["grid"].items()
    ] + [f"        dag: bootstop savings {p['bootstop_savings']:.0%}, "
         f"warm hit rate {p['warm_hit_rate']:.0%}, digests "
         f"{_verdict(p['warm_digest_identical'])}"]


def measure_throughput(
    bootstraps: int = BOOTSTRAPS,
    tasks: int = TASKS,
    seed: int = SEED,
    duration_s: float = PERF_SERVE_DURATION_S,
    arrival_rate: float = PERF_SERVE_ARRIVAL_RATE,
    reps: int = 3,
    time_source=time.perf_counter,
    small_duration_s: float = SERVE_DURATION_S,
    small_arrival_rate: float = SERVE_ARRIVAL_RATE,
) -> Dict[str, Any]:
    """Time the throughput grid; returns the ``BENCH_perf`` payload.

    Three tracked scenarios, each run ``reps`` times with the best
    (fastest) wall time kept to damp host noise:

    * ``fig8`` — the shared MGPS Figure-8-style workload, reporting
      kernel events per wall-second;
    * ``serve`` — the serving run at throughput scale (static-block,
      fixed fleet, >= 10^4 completed jobs), reporting events per
      wall-second *and* completed jobs per wall-second;
    * ``serve_small`` — the same service at the SLO-grid scale
      (:data:`SERVE_DURATION_S`), kept as the warm-up-dominated point of
      the jobs-per-wall-second grid.

    The ``events``/``jobs`` counts are deterministic and gate through
    :func:`compare` like any other field; the ``*_per_sec_wall`` rates
    are enforced only as one-sided floors by :func:`check_perf_floors`.
    """
    from ..core.runner import run_experiment
    from ..core.schedulers import mgps
    from ..serve import ServeConfig, default_tenants, run_service
    from ..workloads.traces import Workload

    def best_of(fn):
        best, result = float("inf"), None
        for _ in range(max(1, reps)):
            t0 = time_source()
            result = fn()
            best = min(best, time_source() - t0)
        return best, result

    def fig8_run():
        wl = Workload(
            bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed
        )
        return run_experiment(mgps(), wl, seed=seed)

    fig8_wall, fig8 = best_of(fig8_run)

    def serve_run(dur, rate):
        def run():
            cfg = ServeConfig(
                tenants=default_tenants(arrival_rate=rate),
                duration_s=dur,
                seed=seed,
            )
            return run_service(cfg)
        return run

    serve_wall, serve = best_of(serve_run(duration_s, arrival_rate))
    serve_jobs = serve.summary["completed"]
    small_wall, small = best_of(
        serve_run(small_duration_s, small_arrival_rate)
    )
    small_jobs = small.summary["completed"]

    def rate(count, wall):
        return count / wall if wall > 0 else 0.0

    def serve_row(result, jobs, wall):
        return {
            "events": result.events_processed,
            "jobs": jobs,
            "events_per_sec_wall": rate(result.events_processed, wall),
            "jobs_per_sec_wall": rate(jobs, wall),
            "seconds_wall": wall,
        }

    return {
        "workload": {
            "bootstraps": bootstraps,
            "tasks_per_bootstrap": tasks,
            "seed": seed,
            "serve_duration_s": duration_s,
            "serve_arrival_rate": arrival_rate,
            "serve_small_duration_s": small_duration_s,
            "serve_small_arrival_rate": small_arrival_rate,
            "reps": reps,
        },
        "scenarios": {
            "fig8": {
                "events": fig8.events_processed,
                "events_per_sec_wall": rate(fig8.events_processed, fig8_wall),
                "seconds_wall": fig8_wall,
            },
            "serve": serve_row(serve, serve_jobs, serve_wall),
            "serve_small": serve_row(small, small_jobs, small_wall),
        },
    }


def _perf_summary(p: Dict[str, Any]) -> List[str]:
    return [
        f"{'perf/' + scen:>16}: {row['events_per_sec_wall']:>9,.0f} events/s"
        + (f", {row['jobs_per_sec_wall']:.1f} jobs/s"
           if "jobs_per_sec_wall" in row else "")
        + f" ({row['events']} events in {row['seconds_wall']:.2f} s)"
        for scen, row in p["scenarios"].items()
    ]


def check_perf_floors(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = PERF_REGRESSION_TOLERANCE,
) -> List[Dict[str, Any]]:
    """One-sided throughput floors over a ``BENCH_perf`` payload pair.

    Every ``*_per_sec_wall`` rate in the baseline must be met by the
    current measurement up to the tolerance: ``current >= baseline *
    (1 - tolerance)``.  Being *faster* than the baseline never fails —
    commit the improvement with ``repro bench --write`` to ratchet the
    floor up.  Returns violation dicts shaped like :func:`compare`'s.
    """
    tol = tolerance
    violations: List[Dict[str, Any]] = []
    base_scen = baseline.get("scenarios", {})
    cur_scen = current.get("scenarios", {})
    for scenario in sorted(base_scen):
        for key in sorted(base_scen[scenario]):
            if not key.endswith("_per_sec_wall"):
                continue
            base_rate = float(base_scen[scenario][key])
            path = f"scenarios.{scenario}.{key}"
            cur_rate = cur_scen.get(scenario, {}).get(key)
            if cur_rate is None:
                violations.append({
                    "path": path, "kind": "missing",
                    "baseline": base_rate, "current": None,
                })
                continue
            floor = base_rate * (1.0 - tol)
            if float(cur_rate) < floor:
                violations.append({
                    "path": path, "kind": "throughput",
                    "baseline": base_rate, "current": float(cur_rate),
                    "floor": floor, "tolerance": tol,
                })
    return violations


def stable_payload(payload: Any) -> Any:
    """Diff-stable form: sorted keys, rounded floats, ``_wall`` verbatim.

    Wall-clock fields are expected to differ between runs; everything
    else rounds through :func:`~repro.obs.metrics.stable_round` so two
    measurements of the same simulation serialize byte-identically.
    """
    if isinstance(payload, dict):
        return {
            k: (v if isinstance(k, str) and is_wall_field(k)
                else stable_payload(v))
            for k, v in sorted(payload.items())
        }
    if isinstance(payload, (list, tuple)):
        return [stable_payload(v) for v in payload]
    if isinstance(payload, float):
        return stable_round(payload)
    return payload


def write_baseline(root: pathlib.Path, name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Write one ``BENCH_*.json`` baseline at the repo root."""
    path = pathlib.Path(root) / name
    path.write_text(
        json.dumps(stable_payload(payload), indent=2, sort_keys=True) + "\n"
    )
    return path


def flatten(payload: Any, prefix: str = "") -> Dict[str, Any]:
    """Nested dict -> {'a.b.c': leaf}; lists indexed numerically."""
    out: Dict[str, Any] = {}
    if isinstance(payload, dict):
        for k, v in payload.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            out.update(flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = payload
    return out


def _tolerance_for(path: str, tolerances: Dict[str, float]) -> float:
    leaf = path.rsplit(".", 1)[-1]
    for key in (path, leaf):
        if key in tolerances:
            return tolerances[key]
    for key, tol in tolerances.items():
        if path.startswith(key + ".") or path.endswith("." + key):
            return tol
    return _DEFAULT_TOL


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerances: Optional[Dict[str, float]] = None,
) -> List[Dict[str, Any]]:
    """Diff two benchmark payloads; returns the list of violations.

    Wall-clock fields (path leaf ending in ``_wall``) are skipped.
    Numeric leaves compare with a per-metric relative tolerance; other
    leaves (workload descriptors, labels) must match exactly.  Missing
    or extra non-wall leaves are violations too: a baseline that loses a
    metric silently is as suspect as one that drifts.
    """
    tol_map = dict(DEFAULT_TOLERANCES)
    tol_map.update(tolerances or {})
    # Round both sides the way baselines are serialized, so a fresh
    # in-memory measurement compares cleanly against a committed file.
    cur = {
        k: v for k, v in flatten(stable_payload(current)).items()
        if not is_wall_field(k)
    }
    base = {
        k: v for k, v in flatten(stable_payload(baseline)).items()
        if not is_wall_field(k)
    }
    violations: List[Dict[str, Any]] = []
    for path in sorted(base.keys() | cur.keys()):
        if path not in cur:
            violations.append({"path": path, "kind": "missing",
                               "baseline": base[path], "current": None})
            continue
        if path not in base:
            violations.append({"path": path, "kind": "new",
                               "baseline": None, "current": cur[path]})
            continue
        b, c = base[path], cur[path]
        if isinstance(b, (int, float)) and isinstance(c, (int, float)) \
                and not isinstance(b, bool) and not isinstance(c, bool):
            tol = _tolerance_for(path, tol_map)
            scale = max(abs(float(b)), abs(float(c)), 1e-12)
            if abs(float(c) - float(b)) > tol * scale + 1e-12:
                violations.append({
                    "path": path, "kind": "drift",
                    "baseline": b, "current": c, "tolerance": tol,
                })
        elif b != c:
            violations.append({"path": path, "kind": "changed",
                               "baseline": b, "current": c})
    return violations


def render_violations(violations: List[Dict[str, Any]]) -> str:
    if not violations:
        return "bench: OK (all tracked metrics within tolerance)"
    lines = [f"bench: {len(violations)} metric(s) drifted from baseline"]
    for v in violations:
        if v["kind"] == "drift":
            lines.append(
                f"  [drift]   {v['path']}: {v['baseline']} -> {v['current']}"
                f" (tol {v['tolerance']:g})"
            )
        elif v["kind"] == "throughput":
            lines.append(
                f"  [throughput] {v['path']}: {v['current']:.0f}/s fell "
                f"below the floor {v['floor']:.0f}/s "
                f"(baseline {v['baseline']:.0f}/s, tol {v['tolerance']:g})"
            )
        else:
            lines.append(
                f"  [{v['kind']}] {v['path']}: "
                f"{v['baseline']!r} -> {v['current']!r}"
            )
    return "\n".join(lines)


Payload = Dict[str, Any]


@dataclass(frozen=True)
class Section:
    """One tracked ``BENCH_*.json`` baseline and how the gate treats it.

    ``workload`` maps a field of the baseline's ``workload`` block to
    the ``measure`` keyword it feeds; a field the baseline lacks falls
    back to the measure's default.  ``gates`` are the semantic checks
    ``(check, holds(payload), message)``: they hold against *any*
    baseline, so a stale ``--write`` cannot weaken them, and the message
    formats against the payload.  ``ok`` is the verdict printed when the
    payload matches its baseline, and ``summary`` renders the console
    lines ``repro bench`` prints for a fresh measurement.
    """

    name: str
    file: str
    required: Tuple[str, ...]
    measure: Optional[Callable[..., Payload]] = None
    workload: Mapping[str, str] = field(default_factory=dict)
    gates: Tuple[Tuple[str, Callable[[Payload], bool], str], ...] = ()
    ok: str = ""
    summary: Optional[Callable[[Payload], List[str]]] = None


_FIG8_WORKLOAD = {"bootstraps": "bootstraps",
                  "tasks_per_bootstrap": "tasks", "seed": "seed"}

# The gated sections, in measurement order: ``repro bench`` measures,
# prints, writes and checks exactly these.
SECTIONS: Dict[str, Section] = {s.name: s for s in (
    Section(
        "core", "BENCH_core.json",
        ("workload", "schedulers", "speedup_over_serial", "llp_schedules"),
        measure_core, _FIG8_WORKLOAD,
        ok="scheduler ladder within tolerance", summary=_core_summary,
    ),
    Section(
        "faults", "BENCH_faults.json",
        ("workload", "fault_free", "zero_fault_tolerant", "faulty",
         "fleet_faults"),
        measure_faults, _FIG8_WORKLOAD,
        gates=(
            ("digest_match",
             lambda p: p["zero_fault_tolerant"]["digest_match"],
             "zero_fault_tolerant application results diverged from the "
             "fault-free run"),
            ("digest_match", lambda p: p["faulty"]["digest_match"],
             "faulty application results diverged from the fault-free run"),
            ("lost", lambda p: p["fleet_faults"]["lost_jobs"] == 0,
             "fleet_faults lost {fleet_faults[lost_jobs]} job(s) under "
             "chaos"),
            ("digest", lambda p: p["fleet_faults"]["digests_identical"],
             "fleet_faults digests diverged from the fault-free run"),
            ("invariants", lambda p: p["fleet_faults"]["invariants_ok"],
             "fleet_faults chaos invariants failed"),
            ("conservation",
             lambda p: p["fleet_faults"]["deadline_conservation_ok"],
             "fleet_faults deadline cell broke job conservation"),
        ),
        ok="fault-tolerance ladder within tolerance",
        summary=_faults_summary,
    ),
    Section(
        "serve", "BENCH_serve.json",
        ("workload", "policies", "digests_identical", "breakdown"),
        measure_serve,
        {"seed": "seed", "duration_s": "duration_s",
         "arrival_rate": "arrival_rate"},
        gates=(
            ("digest", lambda p: p["digests_identical"],
             "per-job digests diverged across dispatch policies"),
        ),
        ok="serving SLO grid within tolerance", summary=_serve_summary,
    ),
    Section(
        "dag", "BENCH_dag.json",
        ("workload", "grid", "bootstop_savings", "warm_hit_rate",
         "warm_digest_identical"),
        measure_dag,
        {"seed": "seed", "replicates": "replicates", "conflict": "conflict"},
        gates=(
            ("warm_hit_rate", lambda p: p["warm_hit_rate"] == 1.0,
             "repeat submission missed the stage cache (warm hit rate "
             "{warm_hit_rate:.0%}, want 100%)"),
            ("warm_digest", lambda p: p["warm_digest_identical"],
             "warm workflow digest diverged from the cache-cold run"),
            ("bootstop", lambda p: p["bootstop_savings"] >= 0.30,
             "bootstop cancelled only {bootstop_savings:.0%} of the "
             "fan-out (want >= 30%)"),
            ("conservation", lambda p: p["conservation_ok"],
             "a workflow cell broke job conservation"),
            ("lost", lambda p: p["lost_jobs"] == 0,
             "workflow grid lost {lost_jobs} jobs (want 0)"),
        ),
        ok="workflow grid within tolerance", summary=_dag_summary,
    ),
    Section(
        "perf", "BENCH_perf.json", ("workload", "scenarios"),
        measure_throughput,
        dict(_FIG8_WORKLOAD, serve_duration_s="duration_s",
             serve_arrival_rate="arrival_rate", reps="reps",
             serve_small_duration_s="small_duration_s",
             serve_small_arrival_rate="small_arrival_rate"),
        ok="throughput grid within tolerance", summary=_perf_summary,
    ),
)}

# Checked, never re-measured: ``benchmarks/bench_obs_overhead.py`` is
# its only writer, and the gate cross-checks it against the core ladder.
OBS = Section(
    "obs", "BENCH_obs.json",
    ("workload", "makespan_s", "offloads", "on_over_off_ratio_wall",
     "metrics_over_off_ratio_wall", "ledger_over_off_ratio_wall",
     "causal_over_off_ratio_wall"),
)


def semantic_violations(section: str, payload: Payload) -> List[Violation]:
    """The semantic gates one fresh measurement of ``section`` breaks.

    Drift against the committed file is :func:`compare`'s job; these
    are the invariants and floors every measurement must meet.  A
    payload that lacks a gate's fields fails that gate.
    """
    out: List[Violation] = []
    for check, holds, message in SECTIONS[section].gates:
        try:
            if holds(payload):
                continue
            detail = message.format_map(payload)
        except (KeyError, TypeError) as exc:
            detail = f"cannot evaluate on this payload ({exc!r})"
        out.append(Violation(check, detail))
    return out


def _load_baseline(root: pathlib.Path,
                   section: Section) -> Tuple[Optional[Payload], str]:
    """``(baseline, "")``, or ``(None, why)`` when it cannot be gated."""
    path = root / section.file
    if not path.exists():
        return None, f"bench: missing baseline {path}"
    with open(path) as fh:
        baseline = json.load(fh)
    missing = [k for k in section.required if k not in baseline]
    if missing:
        return None, f"bench: {section.file} lacks required keys {missing}"
    return baseline, ""


def _obs_cross_check(root: pathlib.Path,
                     core: Optional[Payload]) -> Tuple[bool, str]:
    """``BENCH_obs.json`` and the core ladder share the MGPS workload."""
    obs, why = _load_baseline(root, OBS)
    if obs is None:
        return False, why
    obs_wl = obs["workload"]
    if core is None or not (
        obs_wl.get("scheduler") == "mgps"
        and obs_wl.get("bootstraps") == core["workload"]["bootstraps"]
        and obs_wl.get("tasks_per_bootstrap")
            == core["workload"]["tasks_per_bootstrap"]
    ):
        return True, (f"bench: {OBS.file} workload differs from the "
                      f"core ladder; structural check only")
    mgps_row = core["schedulers"].get("mgps", {})
    cross = compare(
        {"makespan_s": mgps_row.get("makespan_s"),
         "offloads": mgps_row.get("offloads")},
        {"makespan_s": obs["makespan_s"], "offloads": obs["offloads"]},
    )
    if cross:
        return False, (f"bench: {OBS.file} disagrees with the core "
                       f"ladder on the shared MGPS workload\n"
                       + render_violations(cross))
    return True, (f"bench: {OBS.file} consistent with the core ladder "
                  f"(shared MGPS workload)")


def check_baselines(
    root: Optional[pathlib.Path] = None,
    current: Optional[Mapping[str, Payload]] = None,
    perf_floor_tolerance: float = PERF_REGRESSION_TOLERANCE,
) -> Tuple[bool, str]:
    """The regression gate: committed baselines vs a fresh measurement.

    For every section of :data:`SECTIONS` it re-measures (``current``
    maps section names to measurements to reuse), diffs the result
    against the committed file with :func:`compare` and applies the
    section's :func:`semantic_violations`.  Two special cases ride
    along: ``BENCH_obs.json``'s deterministic fields are cross-checked
    against the core ladder (both describe the identical MGPS workload),
    and ``BENCH_perf.json``'s ``*_per_sec_wall`` rates must stay above
    their :func:`check_perf_floors` floor at ``perf_floor_tolerance``.
    Returns ``(ok, report_text)``.
    """
    root = pathlib.Path(root) if root is not None else find_repo_root()
    given = current or {}
    measured: Dict[str, Payload] = {}
    lines: List[str] = []
    ok = True
    for section in SECTIONS.values():
        baseline, why = _load_baseline(root, section)
        if baseline is None:
            lines.append(why)
            ok = False
            continue
        wl = baseline["workload"]
        payload = given.get(section.name) or section.measure(
            **{arg: wl[field] for field, arg in section.workload.items()
               if field in wl}
        )
        measured[section.name] = payload
        # Wall fields are excluded from the diff (``_wall`` suffix); only
        # the perf file's one-sided throughput floors can gate on them.
        drift = compare(payload, baseline)
        what = section.ok
        if section.name == "perf":
            drift += check_perf_floors(payload, baseline,
                                       tolerance=perf_floor_tolerance)
            what += (f"; rates above the {perf_floor_tolerance:.0%}"
                     f"-regression floor")
        if drift:
            lines += [f"bench: {section.file} drifted",
                      render_violations(drift)]
        else:
            lines.append(f"bench: {section.file} OK ({what})")
        broken = semantic_violations(section.name, payload)
        lines += [f"bench: {section.file}: {v}" for v in broken]
        ok = ok and not drift and not broken
    obs_ok, obs_line = _obs_cross_check(root, measured.get("core"))
    lines.append(obs_line)
    ok = ok and obs_ok
    lines.append(render_violations([]) if ok
                 else "bench: FAILED (see the lines above)")
    return ok, "\n".join(lines)
