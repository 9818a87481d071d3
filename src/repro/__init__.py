"""repro — Dynamic Multigrain Parallelization on the Cell Broadband Engine.

A faithful, simulator-based reproduction of Blagojevic et al., PPoPP 2007:
the EDTLP event-driven task scheduler, the LLP work-sharing loop runtime,
and the adaptive MGPS policy, evaluated on a discrete-event Cell BE model
driven by RAxML-like workloads.

Quickstart::

    from repro import Workload, edtlp, linux, mgps, run_experiment

    wl = Workload(bootstraps=8, tasks_per_bootstrap=500)
    base = run_experiment(linux(), wl)
    ours = run_experiment(mgps(), wl)
    print(f"MGPS is {ours.speedup_over(base):.2f}x faster than the OS scheduler")
"""

from .cell import BladeParams, CellMachine, CellParams, DEFAULT_BLADE, DEFAULT_CELL
from .core import (
    LLPConfig,
    OracleSelector,
    ScheduleResult,
    SchedulerSpec,
    edtlp,
    linux,
    mgps,
    run_bsp_experiment,
    run_cluster_experiment,
    run_experiment,
    static_hybrid,
)
from .obs import (
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    write_chrome_trace,
    write_trace_jsonl,
)
from .serve import (
    FleetFaultPlan,
    JobTemplate,
    ServeConfig,
    ServeResult,
    TenantSpec,
    default_tenants,
    run_service,
)
from .sim import Tracer
from .workloads import BSPWorkload, FixedTraceWorkload, RAXML_42SC, RaxmlProfile, Workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Workload",
    "RaxmlProfile",
    "RAXML_42SC",
    "CellParams",
    "BladeParams",
    "DEFAULT_CELL",
    "DEFAULT_BLADE",
    "CellMachine",
    "SchedulerSpec",
    "linux",
    "edtlp",
    "static_hybrid",
    "mgps",
    "run_experiment",
    "run_bsp_experiment",
    "run_cluster_experiment",
    "ScheduleResult",
    "LLPConfig",
    "OracleSelector",
    "BSPWorkload",
    "FixedTraceWorkload",
    "FleetFaultPlan",
    "JobTemplate",
    "ServeConfig",
    "ServeResult",
    "TenantSpec",
    "default_tenants",
    "run_service",
    "Tracer",
    "MetricsRegistry",
    "SpanRecorder",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace_jsonl",
]
