"""Command-line interface: ``python -m repro <command>``.

Regenerates any of the paper's tables/figures, runs a quick scheduler
comparison, draws a schedule timeline, or records an observability
artifact — without writing a script.

Examples::

    python -m repro table1
    python -m repro fig8 --panel b
    python -m repro compare --bootstraps 12 --tasks 300
    python -m repro timeline --scheduler mgps --bootstraps 4
    python -m repro run mgps --llp-schedule guided    # pick a loop schedule
    python -m repro schedulers                        # list policies/schedules
    python -m repro trace fig8 --out trace.json   # open in ui.perfetto.dev
    python -m repro stats fig8                    # scheduler metrics snapshot
    python -m repro stats fig8 --fail-on 'spe_idle_ratio>0.25'
    python -m repro health fig8                   # rule-based run diagnosis
    python -m repro report fig8 --out report.html # self-contained HTML report
    python -m repro bench --check                 # baseline regression gate
    python -m repro faults mgps --spe-kill 2:2e-4 --dma-error-rate 0.02
    python -m repro serve --autoscale --json      # multi-tenant serving run
    python -m repro serve --dispatch work-stealing --kill-blade 1:600

Every scenario subcommand also accepts ``--trace PATH`` to write a
Chrome/Perfetto trace alongside its normal output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from . import invariants
from .analysis import (
    SWEEP_LARGE,
    SWEEP_SMALL,
    fig10_sweep,
    figure_sweep,
    render_scheduler_summary,
    sec51_offload_experiment,
    table1_experiment,
    table2_experiment,
)
from .analysis.timeline import render_timeline, utilization_bar
from .core.llp import LLPConfig, available_loop_schedules
from .core.runner import run_experiment
from .core.schedulers import SchedulerSpec, edtlp, linux, mgps, static_hybrid
from .obs import MetricsRegistry, write_chrome_trace, write_trace_jsonl
from .obs.bench import PERF_REGRESSION_TOLERANCE, SECTIONS
from .obs.runview import read_run, registry_value
from .sim.trace import Tracer
from .workloads.traces import Workload

__all__ = ["main", "build_parser"]

_SCHEDULERS = {
    "linux": linux,
    "edtlp": edtlp,
    "mgps": mgps,
    "llp2": lambda: static_hybrid(2),
    "llp4": lambda: static_hybrid(4),
}

# Representative single run per scenario for tracing/stats: the paper's
# headline scheduler for that table/figure, on one blade unless the
# scenario is explicitly dual-Cell.
_SCENARIO_SPECS: Dict[str, Tuple[object, int]] = {
    "sec51": (edtlp, 1),
    "table1": (edtlp, 1),
    "table2": (lambda: static_hybrid(4), 1),
    "fig7": (lambda: static_hybrid(2), 1),
    "fig8": (mgps, 1),
    "fig9": (mgps, 2),
    "fig10": (mgps, 1),
    "compare": (mgps, 1),
    "timeline": (mgps, 1),
    "bsp": (mgps, 1),
}
# "serve" is observable too, but runs through the serving layer rather
# than one run_experiment call — see _run_observed.
_OBSERVABLE = sorted(set(_SCENARIO_SPECS) | set(_SCHEDULERS) | {"serve"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Dynamic Multigrain Parallelization on the Cell "
            "Broadband Engine' (PPoPP 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="also write a Chrome/Perfetto trace of a representative "
                 "run of this scenario (open at ui.perfetto.dev)",
        )

    def add_llp_schedule_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--llp-schedule", metavar="NAME", default=None,
            choices=[s.name for s in available_loop_schedules()],
            help="loop schedule for parallelized loops: "
                 + ", ".join(s.name for s in available_loop_schedules())
                 + " (default: static, the paper's single split)",
        )

    # The flags of every subcommand built on one representative run
    # (_run_observed): the workload size, seed and loop schedule.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--bootstraps", type=int, default=3)
    shared.add_argument("--tasks", type=int, default=200)
    shared.add_argument("--seed", type=int, default=0)
    add_llp_schedule_flag(shared)

    def observed(name: str, default: Optional[str] = None,
                 flag: str = "scenario", choices=_OBSERVABLE,
                 **kwargs) -> argparse.ArgumentParser:
        """A subcommand over one representative run of a scenario; the
        scenario is required unless it has a ``default``."""
        p = sub.add_parser(name, parents=[shared], **kwargs)
        optional = {"nargs": "?"} if default and flag == "scenario" else {}
        p.add_argument(flag, choices=choices, default=default, **optional)
        return p

    p = sub.add_parser("sec51", help="Section 5.1 off-load optimization")
    p.add_argument("--tasks", type=int, default=500)
    add_trace_flag(p)

    p = sub.add_parser("table1", help="Table 1: EDTLP vs Linux")
    p.add_argument("--tasks", type=int, default=400)
    add_trace_flag(p)

    p = sub.add_parser("table2", help="Table 2: LLP scaling")
    p.add_argument("--tasks", type=int, default=400)
    add_trace_flag(p)

    for fig in ("fig7", "fig8", "fig9"):
        p = sub.add_parser(fig, help=f"{fig}: scheduler sweep")
        p.add_argument("--panel", choices=["a", "b"], default="a")
        p.add_argument("--tasks", type=int, default=None)
        add_trace_flag(p)

    p = sub.add_parser("fig10", help="Figure 10: Cell vs Xeon vs Power5")
    p.add_argument("--panel", choices=["a", "b"], default="a")
    p.add_argument("--tasks", type=int, default=None)
    add_trace_flag(p)

    p = sub.add_parser("compare", help="compare all schedulers on one workload")
    p.add_argument("--bootstraps", type=int, default=8)
    p.add_argument("--tasks", type=int, default=300)
    p.add_argument("--cells", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    add_llp_schedule_flag(p)
    add_trace_flag(p)

    p = sub.add_parser("bsp", help="MGPS vs EDTLP on an imbalanced BSP workload")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--iterations", type=int, default=8)
    p.add_argument("--imbalance", type=float, default=2.0)
    add_trace_flag(p)

    p = sub.add_parser("timeline", help="draw an SPE schedule timeline")
    p.add_argument("--scheduler", choices=sorted(_SCHEDULERS), default="mgps")
    p.add_argument("--bootstraps", type=int, default=4)
    p.add_argument("--tasks", type=int, default=250)
    p.add_argument("--width", type=int, default=72)
    add_llp_schedule_flag(p)
    add_trace_flag(p)

    p = observed(
        "run", "mgps",
        help="run one scenario/scheduler once and print the result summary",
        description=(
            "One representative simulation of the named scenario (or "
            "scheduler) with tracing and metrics attached — the quickest "
            "way to try a policy/loop-schedule combination.  Prints the "
            "makespan, SPE utilization and per-schedule LLP invocation "
            "counts observed in the trace."
        ),
    )
    add_trace_flag(p)

    sub.add_parser(
        "schedulers",
        help="list registered scheduling policies and loop schedules",
        description=(
            "Print every scheduling policy in the registry (selectable "
            "as SchedulerSpec kind) with its description and spec knobs, "
            "and every loop schedule selectable via LLPConfig.schedule / "
            "--llp-schedule."
        ),
    )

    p = observed(
        "trace",
        help="record a Chrome/Perfetto trace of one scenario run",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler) with full tracing and write Chrome trace-event "
            "JSON, loadable at ui.perfetto.dev or chrome://tracing."
        ),
    )
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output path for the trace-event JSON")
    p.add_argument("--jsonl", metavar="PATH", default=None,
                   help="also dump raw trace records as JSON Lines")

    p = observed(
        "stats",
        help="print the scheduler metrics snapshot for one scenario run",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler) with the metrics registry attached and print the "
            "decision metrics: MGPS window utilization U, context "
            "switches, granularity accept/reject, LLP chunk sizes, "
            "off-load latencies."
        ),
    )
    p.add_argument("--json", action="store_true",
                   help="emit the registry snapshot as JSON instead of text")
    p.add_argument(
        "--fail-on", metavar="EXPR", action="append", default=[],
        help="exit non-zero if a summary metric violates EXPR, e.g. "
             "'spe_idle_ratio>0.25' or 'runtime.offload_waits>0'; "
             "repeatable",
    )

    p = observed(
        "health",
        help="diagnose one scenario run with the rule-based health monitor",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler), feed its trace and metrics to the health "
            "monitor's eleven detectors (the detector catalogue in "
            "docs/ARCHITECTURE.md lists them all) and print the "
            "findings.  Exits non-zero if any finding fires."
        ),
    )
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON array instead of text")

    p = observed(
        "report",
        help="write a self-contained HTML performance report for one run",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler) and render a single self-contained HTML file — "
            "the health monitor's findings, SPE Gantt lanes, the MGPS "
            "window-U series, off-load latency histogram (with the "
            "sojourn breakdown for serving runs), LLP adaptation curve, "
            "the serving and workflow lanes when present, the wall-time "
            "ledger (#perf) and the fault log.  Inline CSS/SVG only; "
            "opens offline."
        ),
    )
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output path for the HTML report")

    p = observed(
        "explain", "serve",
        help="per-job critical-path latency attribution for one run",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler), rebuild causal span trees from its trace and "
            "print critical paths.  Serving runs get per-job phase "
            "breakdowns (admission wait, blade queue, dispatch overhead, "
            "service, failover requeues) whose durations sum to the "
            "job's sojourn time, plus aggregate per-tenant shares; core "
            "scenarios get the slowest off-load trees (retry attempts, "
            "backoff waits, PPE fallback, LLP chunk fan-out)."
        ),
    )
    p.add_argument("--job", type=int, default=None, metavar="ID",
                   help="explain a single job by id (serve scenario)")
    p.add_argument("--tenant", default=None, metavar="NAME",
                   help="restrict per-job output to one tenant")
    p.add_argument("--top", type=int, default=5,
                   help="slowest jobs / off-loads to show (default 5)")
    p.add_argument("--json", action="store_true",
                   help="emit trees and breakdown as JSON instead of text")

    p = observed(
        "profile", "fig8", flag="--scenario",
        help="wall-time layer ledger of one scenario run",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler) under the wall-time layer ledger, which wraps "
            "each public layer boundary (kernel run loop, off-load "
            "decision, LLP model, compile, admission, dispatch, tracer "
            "emit, ...) from outside for the run.  Prints per-layer call "
            "counts, inclusive and self times, per-call p50/p95, kernel "
            "events per second and the unattributed remainder; self "
            "times plus unattributed time add up to wall time.  Layer "
            "names and all counts are deterministic; only wall times "
            "vary between runs."
        ),
    )
    p.add_argument("--sort", choices=("self", "total", "calls"),
                   default="self",
                   help="layer ordering in the text table (default: "
                        "self time)")
    p.add_argument("--top", type=int, default=20,
                   help="layers shown in the text table (default 20)")
    p.add_argument("--json", action="store_true",
                   help="emit the full ledger report as JSON instead of "
                        "text")
    p.add_argument("--perfetto", metavar="PATH", default=None,
                   help="write a Chrome trace combining the run's "
                        "sim-time records with the ledger's wall-time "
                        "spans")

    # Node-level serving faults have their own flag: repro serve --kill-blade.
    p = observed(
        "faults", choices=[s for s in _OBSERVABLE if s != "serve"],
        help="run one scenario under an injected fault plan",
        description=(
            "Run one representative simulation of the named scenario (or "
            "scheduler) twice — fault-free, then under the given fault "
            "plan — and report the recovery actions (retries, PPE "
            "fallbacks, blacklists, loop recoveries) plus the headline "
            "invariant: the application results must be bit-identical; "
            "only the timeline may change.  Exits non-zero if the result "
            "digests diverge."
        ),
    )
    p.add_argument("--plan", metavar="PATH", default=None,
                   help="JSON fault plan (see FaultPlan.to_json); flags "
                        "below override/extend the file's plan")
    p.add_argument("--fault-seed", type=int, default=None, metavar="N",
                   help="seed for the fault RNG streams (default 0)")
    p.add_argument("--offload-fail-rate", type=float, default=None,
                   metavar="P", help="transient off-load failure probability")
    p.add_argument("--dma-error-rate", type=float, default=None, metavar="P",
                   help="per-DMA-transfer error probability")
    p.add_argument("--spe-kill", action="append", default=[],
                   metavar="SPE:TIME",
                   help="kill SPE index at simulated time (seconds); "
                        "repeatable, e.g. --spe-kill 2:2e-4")
    p.add_argument("--slow-spe", action="append", default=[],
                   metavar="SPE:FACTOR",
                   help="degrade SPE index by a service-time factor; "
                        "repeatable, e.g. --slow-spe 5:2.0")
    p.add_argument("--json", action="store_true",
                   help="emit the comparison as JSON instead of text")
    add_trace_flag(p)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant online serving simulation",
        description=(
            "Stream jobs from a mixed tenant population (open-loop "
            "Poisson, closed-loop think-time, bursty) at a fleet of "
            "simulated Cell blades through admission control, a dispatch "
            "policy and (optionally) the MGPS-style fleet autoscaler, "
            "then print the SLO ledger: per-tenant tail latency, "
            "goodput, rejection and deadline-miss accounting.  "
            "Deterministic: the same seed reproduces the run byte for "
            "byte, including --json output.  Exits non-zero if job "
            "conservation breaks or, under a fault plan, a job shared "
            "with a fault-free rerun changes its digest "
            "(repro.invariants)."
        ),
    )
    from .serve.dispatch import available_dispatch_policies
    from .serve.fleet import available_blade_schedulers

    p.add_argument("--duration", type=float, default=3600.0, metavar="S",
                   help="arrival horizon in simulated seconds; the run "
                        "drains after (default 3600)")
    p.add_argument("--arrival-rate", type=float, default=0.02, metavar="R",
                   help="open-loop tenant arrival rate [jobs/s] "
                        "(default 0.02)")
    p.add_argument("--tenants", type=int, default=3, choices=(1, 2, 3),
                   help="tenant mix size: 1 = open-loop only, 2 = + "
                        "closed-loop, 3 = + bursty (default 3)")
    p.add_argument("--dispatch", default="static-block",
                   choices=[i.name for i in available_dispatch_policies()],
                   help="blade-selection policy (default static-block)")
    p.add_argument("--scheduler", default="mgps",
                   choices=available_blade_schedulers(),
                   help="blade-level scheduler for each job bag "
                        "(default mgps)")
    p.add_argument("--autoscale", action="store_true",
                   help="enable the utilization-feedback fleet autoscaler "
                        "(start at --min-blades instead of --max-blades)")
    p.add_argument("--min-blades", type=int, default=2)
    p.add_argument("--max-blades", type=int, default=4)
    p.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                   help="admission bound on jobs in the system "
                        "(default 64)")
    p.add_argument("--batch-max", type=int, default=1, metavar="N",
                   help="max same-template jobs fused per dispatch "
                        "(default 1 = no batching)")
    p.add_argument("--kill-blade", action="append", default=[],
                   metavar="BLADE:TIME",
                   help="kill blade index at simulated time (seconds); "
                        "queued and running jobs fail over, repeatable")
    p.add_argument("--slow-blade", action="append", default=[],
                   metavar="BLADE:TIME:FACTOR[:DURATION]",
                   help="multiply blade service times by FACTOR from TIME "
                        "(optionally recovering after DURATION seconds); "
                        "repeatable")
    p.add_argument("--flap-blade", action="append", default=[],
                   metavar="BLADE:TIME:DOWN",
                   help="crash the blade at TIME and rejoin it DOWN "
                        "seconds later (on breaker probation); repeatable")
    p.add_argument("--degrade-blade", action="append", default=[],
                   metavar="BLADE:TIME:LATENCY[:DURATION]",
                   help="add LATENCY seconds of front-end->blade dispatch "
                        "latency from TIME (optionally recovering after "
                        "DURATION); repeatable")
    p.add_argument("--fault-plan", metavar="PATH", default=None,
                   help="load a FleetFaultPlan JSON file; per-fault flags "
                        "are appended on top of it")
    p.add_argument("--resilience", action="store_true",
                   help="enable hedged dispatch and the per-blade circuit "
                        "breaker")
    p.add_argument("--enforce-deadlines", action="store_true",
                   help="shed jobs whose deadline became unreachable "
                        "instead of finishing them late")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the full deterministic run record as JSON")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the self-contained HTML report "
                        "(includes the serving lane)")
    add_trace_flag(p)

    p = sub.add_parser(
        "dag",
        help="run staged workflow pipelines over the serving fleet",
        description=(
            "Submit multi-stage workflows (check MSA -> infer ML -> "
            "bootstrap fan-out -> consensus) through the workflow DAG "
            "engine: stages dispatch as their dependencies resolve, the "
            "bootstrap stage fans out into per-replicate sibling jobs, "
            "an autoMRE-style convergence monitor (--bootstop) cancels "
            "the redundant tail of the fan-out, and completed stages are "
            "content-addressed into a fleet-wide result cache so repeat "
            "submissions short-circuit to cache hits.  Deterministic per "
            "seed; prints the workflow ledger.  Exits non-zero if job "
            "conservation breaks, a job is lost or, with --kill-blade "
            "and no --bootstop, the final digests differ from a "
            "fault-free rerun (repro.invariants)."
        ),
    )
    p.add_argument("--workflow", default="raxml", choices=("raxml",),
                   help="pipeline shape (default raxml: check-msa -> "
                        "infer-ml -> bootstrap -> consensus)")
    p.add_argument("--replicates", type=int, default=100, metavar="N",
                   help="bootstrap fan-out width (default 100)")
    p.add_argument("--submissions", type=int, default=1, metavar="N",
                   help="identical workflow submissions, chained back to "
                        "back (default 1; 2+ exercises the stage cache)")
    p.add_argument("--conflict", type=float, default=0.15, metavar="F",
                   help="replicate disagreement probability in [0, 1]: "
                        "small = converging supports, 1.0 = diverging "
                        "(default 0.15)")
    p.add_argument("--bootstop", action="store_true",
                   help="enable the autoMRE-style convergence monitor "
                        "that cancels the redundant bootstrap tail")
    p.add_argument("--cache", default="on", choices=("on", "off"),
                   help="digest-keyed stage result cache (default on)")
    p.add_argument("--blades", type=int, default=2,
                   help="fleet size (default 2)")
    p.add_argument("--dispatch", default="least-loaded",
                   choices=[i.name for i in available_dispatch_policies()],
                   help="blade-selection policy (default least-loaded)")
    p.add_argument("--scheduler", default="mgps",
                   choices=available_blade_schedulers(),
                   help="blade-level scheduler (default mgps)")
    p.add_argument("--kill-blade", action="append", default=[],
                   metavar="BLADE:TIME",
                   help="kill blade index at simulated time (seconds) "
                        "during the run; repeatable")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the full deterministic run record as JSON")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the self-contained HTML report "
                        "(includes the workflow lane)")
    add_trace_flag(p)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos soak over randomized fleet fault plans",
        description=(
            "Draw a batch of seeded randomized FleetFaultPlans (blade "
            "kills, flaps, slowdowns, link degradation), run the same "
            "open-loop serving workload under each with hedging and the "
            "circuit breaker enabled, and assert the resilience "
            "invariants: zero lost jobs, per-job digests bit-identical "
            "to the fault-free run, bounded p99 inflation and a legal "
            "breaker state machine.  Exits non-zero when any invariant "
            "fails, or (with --check) when the soak never exercised a "
            "hedge or a full breaker recovery cycle."
        ),
    )
    from .serve.chaos import CHAOS_MIXES

    p.add_argument("--plans", type=int, default=20, metavar="N",
                   help="randomized fault plans to draw (default 20)")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed; plan k derives from (seed, k)")
    p.add_argument("--mix", default="storm", choices=CHAOS_MIXES,
                   help="fault mix: storm = crashes + stragglers, "
                        "stragglers = timing faults only (default storm)")
    p.add_argument("--duration", type=float, default=2400.0, metavar="S",
                   help="arrival horizon per run in simulated seconds "
                        "(default 2400)")
    p.add_argument("--arrival-rate", type=float, default=0.05, metavar="R",
                   help="open-loop arrival rate [jobs/s] (default 0.05)")
    p.add_argument("--blades", type=int, default=4,
                   help="fleet size (default 4; storm needs >= 3)")
    p.add_argument("--dispatch", default="least-loaded",
                   choices=[i.name for i in available_dispatch_policies()],
                   help="blade-selection policy (default least-loaded)")
    p.add_argument("--check", action="store_true",
                   help="also require mechanism liveness: >= 1 hedge and "
                        ">= 1 completed breaker recovery cycle")
    p.add_argument("--json", action="store_true",
                   help="emit the full soak report as JSON")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the HTML report of the first failing plan "
                        "(or the last plan when all pass)")

    baselines = ", ".join(s.file for s in SECTIONS.values())
    p = sub.add_parser(
        "bench",
        help="run the tracked scheduler benchmark ladder",
        description=(
            "Measure the tracked benchmark sections: "
            + ", ".join(SECTIONS) + ".  --check diffs the measurement "
            "against the committed BENCH_*.json baselines (the "
            "regression gate); --write refreshes " + baselines + ".  "
            "Wall-clock fields are informational only, except the "
            "BENCH_perf.json *_per_sec_wall rates which are enforced as "
            "one-sided floors (see --perf-tolerance)."
        ),
    )
    p.add_argument("--check", action="store_true",
                   help="diff against committed baselines; exit non-zero "
                        "on drift")
    p.add_argument("--write", action="store_true",
                   help="rewrite " + baselines + " at the repo root "
                        "(ratchets the throughput floor)")
    p.add_argument("--perf-tolerance", type=float,
                   default=PERF_REGRESSION_TOLERANCE, metavar="FRAC",
                   help="allowed fractional throughput regression before "
                        f"--check fails (default "
                        f"{PERF_REGRESSION_TOLERANCE:.2f})")
    p.add_argument("--only", metavar="SECTION", action="append",
                   choices=list(SECTIONS), default=None,
                   help="measure (and with --write, re-record) only the "
                        "named baseline section instead of all of them; "
                        "repeatable.  Not combinable with --check, which "
                        "always validates every baseline.")

    return parser


def _panel_counts(panel: str):
    return SWEEP_SMALL if panel == "a" else SWEEP_LARGE


def _panel_tasks(panel: str, override: Optional[int]) -> int:
    if override is not None:
        return override
    return 300 if panel == "a" else 150


def _apply_llp_schedule(
    spec: SchedulerSpec, schedule: Optional[str]
) -> SchedulerSpec:
    """Select a loop schedule on ``spec`` (None keeps the spec's own)."""
    if not schedule:
        return spec
    from dataclasses import replace

    cfg = spec.llp_config or LLPConfig()
    return spec.with_(llp_config=replace(cfg, schedule=schedule))


def _representative(args: argparse.Namespace):
    """``(spec, workload, blade)`` of the representative run of
    ``args.scenario``: the headline scheduler of that table/figure (or
    the named scheduler) on ``args``' workload."""
    from .cell.params import BladeParams

    if args.scenario in _SCHEDULERS:
        spec, n_cells = _SCHEDULERS[args.scenario](), 1
    else:
        factory, n_cells = _SCENARIO_SPECS[args.scenario]
        spec = factory()
    wl = Workload(bootstraps=args.bootstraps,
                  tasks_per_bootstrap=args.tasks, seed=args.seed)
    return (_apply_llp_schedule(spec, args.llp_schedule), wl,
            BladeParams(n_cells=n_cells))


def _run_observed(args: argparse.Namespace):
    """One representative run of ``args.scenario`` with tracer + metrics
    on; returns ``(tracer, metrics, result)``."""
    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    if args.scenario == "serve":
        # The serving layer has its own workload model; bootstraps/tasks
        # and --llp-schedule don't apply to the representative run.
        from types import SimpleNamespace

        from .serve import ServeConfig, default_tenants, run_service

        cfg = ServeConfig(tenants=default_tenants(), seed=args.seed)
        res = run_service(cfg, tracer=tracer, metrics=metrics)
        util = (sum(b["utilization"] for b in res.per_blade)
                / max(1, len(res.per_blade)))
        shim = SimpleNamespace(
            scheduler=f"{cfg.scheduler} (serving, {cfg.dispatch})",
            makespan=res.makespan,
            spe_utilization=util,
            offloads=res.summary["completed"],
            ppe_fallbacks=0,
            llp_invocations=0,
        )
        return tracer, metrics, shim

    spec, wl, blade = _representative(args)
    result = run_experiment(spec, wl, blade=blade, seed=args.seed,
                            tracer=tracer, metrics=metrics)
    return tracer, metrics, result


def _usage(command: str, message) -> int:
    """Report a usage error the way argparse does; returns exit status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _indexed(command: str, flag: str, shape: str,
             texts: List[str]) -> List[list]:
    """Parse each ``INDEX:VALUE[:...]`` value of a repeatable flag.

    ``shape`` is the documented form, e.g. ``BLADE:TIME:FACTOR[:DURATION]``:
    one field per colon-separated name, the bracketed one optional.  The
    first field is an int index, the rest are floats.  A malformed value
    is a usage error (exit 2).
    """
    n_max = shape.count(":") + 1
    n_min = n_max - shape.count("[")
    fields = []
    for text in texts:
        parts = text.split(":")
        try:
            if not n_min <= len(parts) <= n_max:
                raise ValueError(text)
            fields.append([int(parts[0])] + [float(x) for x in parts[1:]])
        except ValueError:
            raise SystemExit(_usage(
                command, f"{flag} expects {shape}, got {text!r}")) from None
    return fields


def _load_plan(command: str, path: str, cls, what: str):
    """``cls.from_json`` of the JSON file at ``path``; a usage error
    (exit 2) if it is missing or does not parse."""
    file = pathlib.Path(path)
    if not file.is_file():
        raise SystemExit(_usage(command, f"{what} file {path!r} not found"))
    try:
        return cls.from_json(file.read_text())
    except ValueError as exc:
        raise SystemExit(_usage(command, exc)) from None


def _write_report(path: str, tracer, metrics, title: str, subtitle: str,
                  profile=None) -> None:
    """Diagnose a traced run and write its self-contained HTML report."""
    from .obs import analyze_run, write_report

    findings = analyze_run(tracer, metrics)
    write_report(path, tracer, metrics, findings, title=title,
                 subtitle=subtitle, profile=profile)
    print(f"wrote report to {path} ({len(findings)} finding(s); "
          f"self-contained, open in any browser)")


def _fail(command: str, violations) -> int:
    """Name each broken invariant on stderr; returns exit status 1."""
    for v in violations:
        print(f"repro {command}: {v}", file=sys.stderr)
    return 1


# Every output-path attribute a subcommand may carry; main refuses a
# path whose directory does not exist before running anything.
_OUTPUTS = ("out", "jsonl", "trace", "perfetto", "report")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for attr in _OUTPUTS:
        path = getattr(args, attr, None)
        if path and not pathlib.Path(path).parent.is_dir():
            return _usage(args.command,
                          f"directory of {path!r} does not exist")
    # Tracers to export for --trace, keyed by run name (one Perfetto
    # process per entry).  Filled by commands that trace their own runs;
    # anything else gets a representative traced run at the end.
    own_traces: Dict[str, Tracer] = {}

    if args.command == "sec51":
        print(sec51_offload_experiment(tasks_per_bootstrap=args.tasks).render())
    elif args.command == "table1":
        print(table1_experiment(tasks_per_bootstrap=args.tasks).render())
    elif args.command == "table2":
        print(table2_experiment(tasks_per_bootstrap=args.tasks).render())
    elif args.command in ("fig7", "fig8", "fig9"):
        schedulers = None
        if args.command == "fig7":
            schedulers = {
                "EDTLP-LLP2": static_hybrid(2),
                "EDTLP-LLP4": static_hybrid(4),
                "EDTLP": edtlp(),
            }
        n_cells = 2 if args.command == "fig9" else 1
        result = figure_sweep(
            _panel_counts(args.panel),
            schedulers=schedulers,
            tasks_per_bootstrap=_panel_tasks(args.panel, args.tasks),
            n_cells=n_cells,
            name=f"Figure {args.command[3:]}{args.panel} "
            f"({'two Cells' if n_cells == 2 else 'one Cell'}, seconds)",
        )
        print(result.render())
    elif args.command == "fig10":
        result = fig10_sweep(
            _panel_counts(args.panel),
            tasks_per_bootstrap=_panel_tasks(args.panel, args.tasks),
        )
        print(result.render())
    elif args.command == "compare":
        from .cell.params import BladeParams
        from .analysis.report import format_table

        wl = Workload(bootstraps=args.bootstraps,
                      tasks_per_bootstrap=args.tasks, seed=args.seed)
        blade = BladeParams(n_cells=args.cells)
        rows = []
        for name, factory in _SCHEDULERS.items():
            tracer = Tracer(enabled=True) if args.trace else None
            spec = _apply_llp_schedule(factory(), args.llp_schedule)
            r = run_experiment(spec, wl, blade=blade, seed=args.seed,
                               tracer=tracer)
            if tracer is not None:
                own_traces[name] = tracer
            rows.append([name, r.makespan, f"{r.spe_utilization:.0%}",
                         r.llp_invocations, r.ppe_fallbacks])
        print(format_table(
            ["scheduler", "makespan [s]", "SPE util", "LLP", "fallbacks"],
            rows,
            title=f"{args.bootstraps} bootstraps on {args.cells} Cell(s)",
        ))
    elif args.command == "bsp":
        from .analysis.report import format_table
        from .core.runner import run_bsp_experiment
        from .workloads.coupled import BSPWorkload

        wl = BSPWorkload(
            n_processes=args.ranks, iterations=args.iterations,
            imbalance=args.imbalance,
        )
        rows = []
        for name, factory in (("edtlp", edtlp), ("mgps", mgps)):
            tracer = Tracer(enabled=True) if args.trace else None
            r = run_bsp_experiment(factory(), wl, tracer=tracer)
            if tracer is not None:
                own_traces[name] = tracer
            rows.append([name, r.makespan * 1e3,
                         f"{r.spe_utilization:.0%}", r.llp_invocations])
        print(format_table(
            ["scheduler", "makespan [ms]", "SPE util", "LLP"],
            rows,
            title=f"BSP: {args.ranks} ranks, {args.iterations} barriers, "
                  f"straggler {1 + args.imbalance:.0f}x",
        ))
    elif args.command == "timeline":
        tracer = Tracer(enabled=True)
        wl = Workload(bootstraps=args.bootstraps,
                      tasks_per_bootstrap=args.tasks)
        result = run_experiment(
            _apply_llp_schedule(_SCHEDULERS[args.scheduler](),
                                args.llp_schedule),
            wl, tracer=tracer,
        )
        own_traces[args.scheduler] = tracer
        window = result.raw_makespan * 0.02
        print(f"{args.scheduler}: makespan {result.makespan:.1f} s, "
              f"SPE utilization {result.spe_utilization:.0%}")
        print(render_timeline(tracer, width=args.width, t_start=window,
                              t_end=2 * window))
        print()
        print(utilization_bar(tracer, result.raw_makespan))
    elif args.command == "trace":
        tracer, _metrics, result = _run_observed(args)
        write_chrome_trace(tracer, args.out)
        if args.jsonl:
            write_trace_jsonl(tracer, args.jsonl)
            print(f"wrote {len(tracer.records)} records to {args.jsonl}")
        print(f"{result.scheduler}: makespan {result.makespan:.2f} s, "
              f"{result.offloads} off-loads, {len(tracer.records)} trace "
              f"records")
        print(f"wrote Chrome trace to {args.out} "
              f"(open at https://ui.perfetto.dev)")
    elif args.command == "stats":
        from .analysis.metrics import scheduler_summary
        from .obs import parse_threshold, resolve_metric

        try:
            rules = [parse_threshold(expr) for expr in args.fail_on]
        except ValueError as exc:
            return _usage("stats", exc)
        _tracer, metrics, result = _run_observed(args)
        if args.json:
            print(metrics.to_json())
        else:
            print(render_scheduler_summary(
                metrics,
                title=f"{args.scenario}: {result.scheduler} on "
                      f"{args.bootstraps} bootstraps x {args.tasks} tasks",
            ))
            print()
            print(metrics.render())
        if rules:
            summary = scheduler_summary(metrics)
            failed = False
            for rule in rules:
                try:
                    observed = resolve_metric(rule.metric, summary, metrics)
                except ValueError as exc:
                    return _usage("stats", exc)
                if rule.violated(observed):
                    print(f"FAIL {rule} (observed {observed:g})",
                          file=sys.stderr)
                    failed = True
                else:
                    print(f"ok   {rule} (observed {observed:g})")
            if failed:
                return 1
    elif args.command == "health":
        from .obs import analyze_run, render_findings

        tracer, metrics, result = _run_observed(args)
        findings = analyze_run(tracer, metrics)
        if args.json:
            print(json.dumps([f.to_dict() for f in findings], indent=2))
        else:
            print(f"{args.scenario}: {result.scheduler} on "
                  f"{args.bootstraps} bootstraps x {args.tasks} tasks")
            print(render_findings(findings))
        if findings:
            return 1
    elif args.command == "report":
        from .obs import Ledger

        ledger = Ledger()
        with ledger.run(args.scenario):
            tracer, metrics, result = _run_observed(args)
        _write_report(
            args.out, tracer, metrics,
            title=f"{args.scenario}: {result.scheduler} scheduler run",
            subtitle=f"{args.bootstraps} bootstraps x {args.tasks} tasks, "
                     f"seed {args.seed} — makespan {result.makespan:.2f} s",
            profile=ledger.report(),
        )
    elif args.command == "explain":
        from .obs import (
            aggregate_breakdown,
            build_job_trees,
            build_offload_trees,
            critical_path,
            job_summary,
            publish_breakdown,
            render_explain,
            top_slowest,
        )

        tracer, metrics, result = _run_observed(args)
        if args.scenario == "serve":
            trees = build_job_trees(tracer)
            breakdown = aggregate_breakdown(trees)
            publish_breakdown(metrics, breakdown)
            if args.json:
                if args.job is not None:
                    jobs = ([job_summary(trees[args.job])]
                            if args.job in trees else [])
                else:
                    jobs = top_slowest(trees, k=args.top,
                                       tenant=args.tenant)
                print(json.dumps(
                    {"scenario": args.scenario, "breakdown": breakdown,
                     "jobs": jobs},
                    indent=2, sort_keys=True,
                ))
            else:
                print(render_explain(trees, breakdown, top=args.top,
                                     job=args.job, tenant=args.tenant))
            if args.job is not None and args.job not in trees:
                return 1
        else:
            roots = build_offload_trees(tracer)
            slow = sorted(roots,
                          key=lambda r: (-r.duration, r.start))[:args.top]
            if args.json:
                print(json.dumps(
                    {"scenario": args.scenario,
                     "offloads": len(roots),
                     "slowest": [r.to_dict() for r in slow]},
                    indent=2, sort_keys=True,
                ))
            elif not roots:
                print("no off-loads recorded — nothing to attribute")
            else:
                print(f"{args.scenario}: {len(roots)} off-loads, top "
                      f"{len(slow)} slowest critical paths:")
                for r in slow:
                    segs = " -> ".join(
                        f"{n.name} {n.duration * 1e6:.1f}us"
                        for n in critical_path(r)[1:]
                    )
                    print(f"  {r.attrs.get('proc')} "
                          f"{r.attrs.get('function')} "
                          f"[{r.duration * 1e6:.1f}us]: {segs}")
    elif args.command == "profile":
        from .obs import Ledger, render_ledger, write_ledger_trace

        ledger = Ledger()
        with ledger.run(args.scenario):
            tracer, metrics, result = _run_observed(args)
        report = ledger.report()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_ledger(
                report, sort=args.sort, top=args.top,
                title=f"{args.scenario}: {result.scheduler} — "
                      f"wall-time layer ledger",
            ))
        if args.perfetto:
            write_ledger_trace(tracer, ledger, args.perfetto)
            print(f"wrote sim-time + wall-clock trace to {args.perfetto} "
                  f"(open at https://ui.perfetto.dev)")
    elif args.command == "faults":
        from .faults import FaultPlan, SPEKill, SlowSPE

        plan = (_load_plan("faults", args.plan, FaultPlan, "plan")
                if args.plan else FaultPlan())
        kills = _indexed("faults", "--spe-kill", "INDEX:VALUE", args.spe_kill)
        slows = _indexed("faults", "--slow-spe", "INDEX:VALUE", args.slow_spe)
        overrides = {}
        if args.fault_seed is not None:
            overrides["seed"] = args.fault_seed
        if args.offload_fail_rate is not None:
            overrides["offload_fail_rate"] = args.offload_fail_rate
        if args.dma_error_rate is not None:
            overrides["dma_error_rate"] = args.dma_error_rate
        try:
            if kills:
                overrides["spe_kills"] = plan.spe_kills + tuple(
                    SPEKill(*v) for v in kills)
            if slows:
                overrides["slow_spes"] = plan.slow_spes + tuple(
                    SlowSPE(*v) for v in slows)
            plan = plan.with_(**overrides) if overrides else plan
        except ValueError as exc:
            return _usage("faults", exc)

        spec, wl, blade = _representative(args)
        clean = run_experiment(spec, wl, blade=blade, seed=args.seed)
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        faulty = run_experiment(
            spec, wl, blade=blade, seed=args.seed,
            tracer=tracer, metrics=metrics, faults=plan,
        )
        own_traces[f"{args.scenario}-faulty"] = tracer
        ex = faulty.extras
        violations = invariants.digest_diff(dict(clean.bootstrap_digests),
                                            dict(faulty.bootstrap_digests))
        digests_match = not violations
        if args.json:
            print(json.dumps({
                "scenario": args.scenario,
                "scheduler": faulty.scheduler,
                "plan": json.loads(plan.to_json()),
                "fault_free_makespan_s": clean.makespan,
                "faulty_makespan_s": faulty.makespan,
                "slowdown": (faulty.makespan / clean.makespan
                             if clean.makespan > 0 else 1.0),
                "spe_kills": ex.get("spe_kills", 0.0),
                "spe_blacklists": ex.get("spe_blacklists", 0.0),
                "offload_retries": ex.get("offload_retries", 0.0),
                "retry_fallbacks": ex.get("retry_fallbacks", 0.0),
                "watchdog_timeouts": ex.get("watchdog_timeouts", 0.0),
                "dma_errors": ex.get("dma_errors", 0.0),
                "llp_recoveries": ex.get("llp_recoveries", 0.0),
                "live_spes": ex.get("live_spes", 0.0),
                "bootstraps_completed": faulty.bootstraps_completed,
                "results_identical": digests_match,
            }, indent=2))
        else:
            print(f"{args.scenario}: {faulty.scheduler} on "
                  f"{args.bootstraps} bootstraps x {args.tasks} tasks")
            print(f"  fault-free : makespan {clean.makespan:8.2f} s, "
                  f"{clean.offloads} off-loads")
            print(f"  with faults: makespan {faulty.makespan:8.2f} s, "
                  f"{faulty.offloads} off-loads "
                  f"({faulty.makespan / clean.makespan:.2f}x)"
                  if clean.makespan > 0 else
                  f"  with faults: makespan {faulty.makespan:8.2f} s")
            inj_fail = registry_value(metrics, "faults.offload_failures")
            print(f"  injected   : {ex.get('spe_kills', 0):.0f} SPE kills, "
                  f"{ex.get('dma_errors', 0):.0f} DMA errors, "
                  f"{inj_fail:.0f} transient off-load failures")
            print(f"  recovery   : {ex.get('offload_retries', 0):.0f} "
                  f"retries, {ex.get('retry_fallbacks', 0):.0f} PPE "
                  f"fallbacks, {ex.get('spe_blacklists', 0):.0f} "
                  f"blacklists, {ex.get('llp_recoveries', 0):.0f} loop "
                  f"recoveries, {ex.get('watchdog_timeouts', 0):.0f} "
                  f"watchdog timeouts")
            print(f"  survivors  : {ex.get('live_spes', 0):.0f} of "
                  f"{len(faulty.per_spe_busy)} SPEs in service; "
                  f"{faulty.bootstraps_completed} bootstraps completed")
            verdict = ("identical to the fault-free run"
                       if digests_match else "DIVERGED from fault-free")
            print(f"  results    : {verdict} "
                  f"(digest {faulty.result_digest[:16]}...)")
        if violations:
            return _fail("faults", violations)
    elif args.command == "serve":
        import dataclasses

        from .serve import (
            BladeFlap,
            BladeKill,
            BladeSlow,
            FleetFaultPlan,
            LinkDegrade,
            ResilienceConfig,
            ServeConfig,
            default_tenants,
            run_service,
        )

        plan = (_load_plan("serve", args.fault_plan, FleetFaultPlan,
                           "fault-plan")
                if args.fault_plan else FleetFaultPlan())
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        try:
            plan = FleetFaultPlan(
                kills=plan.kills + tuple(BladeKill(*v) for v in _indexed(
                    "serve", "--kill-blade", "BLADE:TIME", args.kill_blade)),
                slows=plan.slows + tuple(
                    BladeSlow(*v[:3], duration=v[3] if len(v) > 3 else None)
                    for v in _indexed("serve", "--slow-blade",
                                      "BLADE:TIME:FACTOR[:DURATION]",
                                      args.slow_blade)),
                flaps=plan.flaps + tuple(BladeFlap(*v) for v in _indexed(
                    "serve", "--flap-blade", "BLADE:TIME:DOWN",
                    args.flap_blade)),
                degrades=plan.degrades + tuple(
                    LinkDegrade(*v) for v in _indexed(
                        "serve", "--degrade-blade",
                        "BLADE:TIME:LATENCY[:DURATION]", args.degrade_blade)),
                seed=plan.seed,
            )
            cfg = ServeConfig(
                tenants=default_tenants(arrival_rate=args.arrival_rate,
                                        n_tenants=args.tenants),
                duration_s=args.duration,
                seed=args.seed,
                dispatch=args.dispatch,
                scheduler=args.scheduler,
                min_blades=args.min_blades,
                max_blades=args.max_blades,
                autoscale=args.autoscale,
                queue_capacity=args.queue_capacity,
                batch_max=args.batch_max,
                faults=None if plan.is_null else plan,
                resilience=ResilienceConfig(
                    hedging=args.resilience,
                    breaker=args.resilience,
                    enforce_deadlines=args.enforce_deadlines,
                ),
            )
        except ValueError as exc:
            return _usage("serve", exc)
        result = run_service(cfg, tracer=tracer, metrics=metrics)
        own_traces["serve"] = tracer
        if args.json:
            print(result.to_json())
        else:
            print(result.summary_text())
        violations = invariants.conservation(result.summary)
        if cfg.faults is not None:
            # Mirror `repro faults`: rerun fault-free and verify every
            # job the runs share produced an identical digest.  (Shared
            # keys only: closed-loop tenants submit on completion, so
            # fault timing legitimately changes how *many* jobs exist.)
            clean = run_service(dataclasses.replace(cfg, faults=None))
            clean_map = clean.digest_map()
            faulty_map = result.digest_map()
            changed = [
                v for v in invariants.digest_diff(clean_map, faulty_map)
                if v.check == "digest.changed"
            ]
            violations += changed
            if not args.json:
                shared = len(clean_map.keys() & faulty_map.keys())
                verdict = (
                    f"DIVERGED from fault-free on {len(changed[0].keys)} "
                    f"of {shared} shared jobs"
                    if changed else
                    f"identical to the fault-free run ({shared} shared jobs)"
                )
                print(f"  digests: {verdict}")
        if args.report:
            _write_report(
                args.report, tracer, metrics,
                title=f"serve: {cfg.dispatch} dispatch, "
                      f"{cfg.scheduler} blades",
                subtitle=f"{len(cfg.tenants)} tenants, horizon "
                         f"{cfg.duration_s:g} s, seed {cfg.seed} — "
                         f"drained at {result.makespan:.2f} s",
            )
        if violations:
            return _fail("serve", violations)
    elif args.command == "dag":
        import dataclasses

        from .serve import (
            BladeKill,
            BootstopConfig,
            DagConfig,
            FleetFaultPlan,
            raxml_workflow,
            run_dag,
        )

        kills = _indexed("dag", "--kill-blade", "BLADE:TIME", args.kill_blade)
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        try:
            cfg = DagConfig(
                workflow=raxml_workflow(replicates=args.replicates,
                                        conflict=args.conflict),
                submissions=args.submissions,
                seed=args.seed,
                dispatch=args.dispatch,
                scheduler=args.scheduler,
                blades=args.blades,
                bootstop=BootstopConfig() if args.bootstop else None,
                cache=args.cache == "on",
                faults=(FleetFaultPlan(
                    kills=tuple(BladeKill(*v) for v in kills), seed=args.seed,
                ) if kills else None),
            )
        except ValueError as exc:
            return _usage("dag", exc)
        result = run_dag(cfg, tracer=tracer, metrics=metrics)
        own_traces["dag"] = tracer
        if args.json:
            print(result.to_json())
        else:
            print(result.summary_text())
        violations = (invariants.conservation(result.serve.summary)
                      + invariants.no_lost_jobs(result.serve.summary))
        if cfg.faults is not None and cfg.bootstop is None:
            # Bootstop off: fault timing must not change any result —
            # the faulty run's final digests must match a clean rerun.
            # (Bootstop on: fault timing legitimately moves the
            # convergence point, so only conservation is asserted.)
            clean = run_dag(dataclasses.replace(cfg, faults=None))
            match = clean.final_digests == result.final_digests
            if not match:
                violations.append(invariants.Violation(
                    "digest.changed",
                    "final workflow digests diverged from the fault-free run",
                ))
            if not args.json:
                print("  digests: "
                      + ("identical to the fault-free run" if match
                         else "DIVERGED from fault-free"))
        if args.report:
            _write_report(
                args.report, tracer, metrics,
                title=f"dag: {cfg.workflow.name} x{cfg.submissions}, "
                      f"{cfg.dispatch} dispatch",
                subtitle=f"bootstop "
                         f"{'on' if cfg.bootstop is not None else 'off'}, "
                         f"cache {'on' if cfg.cache else 'off'}, seed "
                         f"{cfg.seed} — drained at {result.makespan:.2f} s",
            )
        if violations:
            return _fail("dag", violations)
    elif args.command == "chaos":
        from .serve.chaos import ChaosConfig, run_chaos

        try:
            chaos_cfg = ChaosConfig(
                plans=args.plans,
                seed=args.seed,
                mix=args.mix,
                duration_s=args.duration,
                arrival_rate=args.arrival_rate,
                blades=args.blades,
                dispatch=args.dispatch,
            )
        except ValueError as exc:
            return _usage("chaos", exc)
        report = run_chaos(chaos_cfg)
        if args.json:
            print(report.to_json())
        else:
            print(report.summary_text())
        if args.report:
            from .serve.chaos import chaos_serve_config
            from .serve.service import run_service

            # Re-run the most interesting plan (first failure, else the
            # last) with full observability and render it.
            shown = (report.failures[0] if report.failures
                     else report.outcomes[-1])
            tracer = Tracer(enabled=True)
            metrics = MetricsRegistry()
            run_service(chaos_serve_config(chaos_cfg, shown.plan),
                        tracer=tracer, metrics=metrics)
            _write_report(
                args.report, tracer, metrics,
                title=f"chaos plan {shown.index}: "
                      f"{shown.plan.describe() or 'no faults'}",
                subtitle=f"mix {chaos_cfg.mix}, seed {chaos_cfg.seed}, "
                         f"{chaos_cfg.blades} blades — "
                         f"{'PASS' if shown.ok else 'FAIL'}",
            )
        failed = bool(report.failures)
        if args.check:
            failed = failed or bool(report.liveness_violations)
        if failed:
            return 1
    elif args.command == "run":
        from collections import Counter

        tracer, metrics, result = _run_observed(args)
        own_traces[args.scenario] = tracer
        schedule = args.llp_schedule or "static"
        print(f"{args.scenario}: {result.scheduler} scheduler, "
              f"{schedule} loop schedule")
        print(f"  makespan   : {result.makespan:.2f} s "
              f"(SPE utilization {result.spe_utilization:.0%})")
        print(f"  off-loads  : {result.offloads} "
              f"({result.ppe_fallbacks} PPE fallbacks)")
        by_schedule = Counter(
            inv.schedule for inv in read_run(tracer).loops)
        if by_schedule:
            breakdown = ", ".join(
                f"{count} {name}" for name, count in sorted(by_schedule.items())
            )
            print(f"  LLP        : {result.llp_invocations} invocations "
                  f"({breakdown})")
        else:
            print(f"  LLP        : {result.llp_invocations} invocations")
    elif args.command == "schedulers":
        from .core.runtime import available_policies

        print("scheduling policies (SchedulerSpec kind):")
        for info in available_policies():
            knobs = f"  [knobs: {', '.join(info.knobs)}]" if info.knobs else ""
            print(f"  {info.name:>13}: {info.description}{knobs}")
        print()
        print("loop schedules (LLPConfig.schedule / --llp-schedule):")
        for s in available_loop_schedules():
            print(f"  {s.name:>13}: {s.description}")
    elif args.command == "bench":
        from .obs import bench as obs_bench

        if args.only and args.check:
            return _usage("bench", "--only cannot be combined with --check "
                          "(the gate always validates every baseline)")
        current = {}
        for section in SECTIONS.values():
            if args.only and section.name not in args.only:
                continue
            current[section.name] = payload = section.measure()
            for line in section.summary(payload):
                print(line)
        if args.write:
            root = obs_bench.find_repo_root()
            for name, payload in current.items():
                path = obs_bench.write_baseline(root, SECTIONS[name].file,
                                                payload)
                print(f"wrote {path}")
        if args.check:
            ok, report = obs_bench.check_baselines(
                current=current, perf_floor_tolerance=args.perf_tolerance,
            )
            print(report)
            if not ok:
                return 1
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)

    if getattr(args, "trace", None) and args.command != "trace":
        if own_traces:
            write_chrome_trace(own_traces, args.trace)
        else:
            # Table and figure sweeps: trace the scenario's
            # representative run at its task count.
            tracer, _, _ = _run_observed(argparse.Namespace(
                scenario=args.command, bootstraps=3,
                tasks=args.tasks or 200, seed=0, llp_schedule=None,
            ))
            write_chrome_trace(tracer, args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"(open at https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
