"""Metrics, report rendering and the per-table/figure experiment harness."""

from .experiments import (
    ExperimentResult,
    PAPER_SEC51,
    PAPER_TABLE1_EDTLP,
    PAPER_TABLE1_LINUX,
    PAPER_TABLE2,
    SWEEP_LARGE,
    SWEEP_SMALL,
    fig10_sweep,
    figure_sweep,
    sec51_offload_experiment,
    table1_experiment,
    table2_experiment,
)
from .efficiency_study import (
    DEFAULT_ECONOMICS,
    PlatformEconomics,
    efficiency_table,
)
from .metrics import (
    crossover,
    llp_chunk_profile,
    offload_latency_percentiles,
    registry_value,
    render_scheduler_summary,
    scheduler_summary,
)
from .report import format_series, format_table, paper_comparison
from .timeline import TaskSpan, extract_spans, render_timeline, utilization_bar

__all__ = [
    "ExperimentResult",
    "sec51_offload_experiment",
    "table1_experiment",
    "table2_experiment",
    "figure_sweep",
    "fig10_sweep",
    "PAPER_TABLE1_EDTLP",
    "PAPER_TABLE1_LINUX",
    "PAPER_TABLE2",
    "PAPER_SEC51",
    "SWEEP_SMALL",
    "SWEEP_LARGE",
    "crossover",
    "registry_value",
    "offload_latency_percentiles",
    "llp_chunk_profile",
    "scheduler_summary",
    "render_scheduler_summary",
    "format_table",
    "format_series",
    "paper_comparison",
    "render_timeline",
    "utilization_bar",
    "extract_spans",
    "TaskSpan",
    "PlatformEconomics",
    "DEFAULT_ECONOMICS",
    "efficiency_table",
]
