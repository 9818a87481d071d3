"""One function per paper table/figure: the reproduction harness.

Each function runs the relevant simulation sweep and returns a structured
result carrying both the measured series and the paper's published values
(where the paper gives numbers; figures read off the plots are encoded as
qualitative claims checked by :mod:`tests.test_paper_claims`).  The
benchmark modules under ``benchmarks/`` are thin wrappers that time these
functions and print their tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cell.params import BladeParams
from ..core.results import ScheduleResult
from ..core.runner import run_experiment
from ..core.schedulers import SchedulerSpec, edtlp, linux, mgps, static_hybrid
from ..platforms.machines import POWER5, XEON_2X_HT
from ..workloads.traces import Workload
from .report import format_series

__all__ = [
    "PAPER_TABLE1_EDTLP",
    "PAPER_TABLE1_LINUX",
    "PAPER_TABLE2",
    "PAPER_SEC51",
    "ExperimentResult",
    "sec51_offload_experiment",
    "table1_experiment",
    "table2_experiment",
    "figure_sweep",
    "fig10_sweep",
    "SWEEP_SMALL",
    "SWEEP_LARGE",
]

# -- published numbers -------------------------------------------------------

PAPER_TABLE1_EDTLP = (28.46, 29.36, 32.54, 33.12, 37.27, 38.66, 41.87, 43.32)
PAPER_TABLE1_LINUX = (28.42, 29.23, 56.95, 57.38, 85.88, 86.43, 114.92, 115.51)
PAPER_TABLE2 = (28.71, 20.83, 19.37, 18.28, 18.10, 20.52, 18.27, 24.40)
PAPER_SEC51 = {
    "ppe_only": 38.23,
    "naive_offload": 50.38,
    "optimized_offload": 28.82,
}

# Bootstrap counts sampled for the (a) 1-16 and (b) 1-128 figure panels.
SWEEP_SMALL: Tuple[int, ...] = (1, 2, 4, 6, 8, 10, 12, 14, 16)
SWEEP_LARGE: Tuple[int, ...] = (1, 4, 8, 16, 32, 64, 96, 128)


@dataclass
class ExperimentResult:
    """Measured series plus rendering for one table/figure."""

    name: str
    xs: List[object]
    series: Dict[str, List[float]]
    paper: Dict[str, Sequence[float]] = field(default_factory=dict)
    results: Dict[str, List[ScheduleResult]] = field(default_factory=dict)

    def render(self) -> str:
        return format_series(self.name, "config", self.xs, self.series)


# -- Section 5.1: off-load optimization ---------------------------------------

def sec51_offload_experiment(
    tasks_per_bootstrap: int = 500, seed: int = 0
) -> ExperimentResult:
    """PPE-only vs naive off-load vs optimized off-load (1 bootstrap).

    * PPE-only: off-loading disabled; every kernel runs on the PPE.
    * naive: optimized=False uses the unvectorized SPE kernel times.
    * optimized: the tuned kernels.
    """
    wl = Workload(bootstraps=1, tasks_per_bootstrap=tasks_per_bootstrap, seed=seed)

    # PPE-only: off-loading structurally disabled; every kernel runs its
    # PPE version in place.
    ppe = run_experiment(
        edtlp(n_processes=1, offload_enabled=False, label="ppe-only"),
        wl,
        seed=seed,
    )
    ppe_only = ppe.makespan

    # The naive port always off-loads (no granularity throttling yet --
    # that machinery is what the paper develops *after* observing the
    # 50.38 s regression).
    naive = run_experiment(
        edtlp(n_processes=1, optimized=False, granularity_enabled=False,
              label="naive"),
        wl,
        seed=seed,
    )
    opt = run_experiment(edtlp(n_processes=1, label="optimized"), wl, seed=seed)

    xs = ["ppe-only", "naive-offload", "optimized-offload"]
    measured = [ppe_only, naive.makespan, opt.makespan]
    paper = [
        PAPER_SEC51["ppe_only"],
        PAPER_SEC51["naive_offload"],
        PAPER_SEC51["optimized_offload"],
    ]
    return ExperimentResult(
        name="Section 5.1: SPE off-loading and optimization (1 bootstrap, 42_SC)",
        xs=xs,
        series={"measured": measured, "paper": list(paper)},
    )


# -- Table 1 -------------------------------------------------------------------

def table1_experiment(
    tasks_per_bootstrap: int = 400,
    workers: Sequence[int] = tuple(range(1, 9)),
    seed: int = 0,
) -> ExperimentResult:
    """EDTLP vs the Linux scheduler, w workers = w bootstraps."""
    edtlp_times: List[float] = []
    linux_times: List[float] = []
    results: Dict[str, List[ScheduleResult]] = {"edtlp": [], "linux": []}
    # One trace cache for the sweep: bootstrap i is built once, not once
    # per worker count.
    shared = Workload(bootstraps=max(workers, default=1),
                      tasks_per_bootstrap=tasks_per_bootstrap, seed=seed)
    for w in workers:
        wl = shared.with_bootstraps(w)
        re = run_experiment(edtlp(n_processes=w), wl, seed=seed)
        rl = run_experiment(linux(n_processes=w), wl, seed=seed)
        edtlp_times.append(re.makespan)
        linux_times.append(rl.makespan)
        results["edtlp"].append(re)
        results["linux"].append(rl)
    return ExperimentResult(
        name="Table 1: EDTLP vs Linux scheduler (42_SC)",
        xs=list(workers),
        series={
            "edtlp": edtlp_times,
            "edtlp(paper)": list(PAPER_TABLE1_EDTLP[: len(workers)]),
            "linux": linux_times,
            "linux(paper)": list(PAPER_TABLE1_LINUX[: len(workers)]),
        },
        paper={"edtlp": PAPER_TABLE1_EDTLP, "linux": PAPER_TABLE1_LINUX},
        results=results,
    )


# -- Table 2 -------------------------------------------------------------------

def table2_experiment(
    tasks_per_bootstrap: int = 400,
    degrees: Sequence[int] = tuple(range(1, 9)),
    seed: int = 0,
) -> ExperimentResult:
    """One bootstrap with loop-level parallelism over k SPEs."""
    times: List[float] = []
    results: Dict[str, List[ScheduleResult]] = {"llp": []}
    # Every degree schedules the same bootstrap: build its trace once.
    wl = Workload(bootstraps=1, tasks_per_bootstrap=tasks_per_bootstrap,
                  seed=seed)
    for k in degrees:
        spec = static_hybrid(k, n_processes=1) if k > 1 else edtlp(n_processes=1)
        r = run_experiment(spec, wl, seed=seed)
        times.append(r.makespan)
        results["llp"].append(r)
    return ExperimentResult(
        name="Table 2: loop-level parallelism across SPEs (1 bootstrap, 42_SC)",
        xs=list(degrees),
        series={
            "llp": times,
            "llp(paper)": list(PAPER_TABLE2[: len(degrees)]),
        },
        paper={"llp": PAPER_TABLE2},
        results=results,
    )


# -- Figures 7, 8, 9 -------------------------------------------------------------

def figure_sweep(
    bootstrap_counts: Sequence[int],
    schedulers: Optional[Dict[str, SchedulerSpec]] = None,
    tasks_per_bootstrap: int = 300,
    n_cells: int = 1,
    seed: int = 0,
    name: str = "figure",
) -> ExperimentResult:
    """The shared engine of Figures 7-9: scheduler curves vs bootstraps.

    Defaults to the four curves the paper plots: MGPS, EDTLP-LLP with 2
    and 4 SPEs per loop, and plain EDTLP.  ``n_cells=2`` reproduces the
    dual-Cell panels of Figure 9.
    """
    if schedulers is None:
        schedulers = {
            "MGPS": mgps(),
            "EDTLP-LLP2": static_hybrid(2),
            "EDTLP-LLP4": static_hybrid(4),
            "EDTLP": edtlp(),
        }
    blade = BladeParams(n_cells=n_cells)
    series: Dict[str, List[float]] = {nm: [] for nm in schedulers}
    results: Dict[str, List[ScheduleResult]] = {nm: [] for nm in schedulers}
    for b in bootstrap_counts:
        wl = Workload(bootstraps=b, tasks_per_bootstrap=tasks_per_bootstrap,
                      seed=seed)
        for nm, spec in schedulers.items():
            r = run_experiment(spec, wl, blade=blade, seed=seed)
            series[nm].append(r.makespan)
            results[nm].append(r)
    return ExperimentResult(
        name=name, xs=list(bootstrap_counts), series=series, results=results
    )


# -- Figure 10 --------------------------------------------------------------------

def fig10_sweep(
    bootstrap_counts: Sequence[int],
    tasks_per_bootstrap: int = 300,
    seed: int = 0,
) -> ExperimentResult:
    """Cell (MGPS) vs dual Hyper-Threaded Xeon vs IBM Power5."""
    cell_times: List[float] = []
    results: Dict[str, List[ScheduleResult]] = {"cell": []}
    for b in bootstrap_counts:
        wl = Workload(bootstraps=b, tasks_per_bootstrap=tasks_per_bootstrap,
                      seed=seed)
        r = run_experiment(mgps(), wl, seed=seed)
        cell_times.append(r.makespan)
        results["cell"].append(r)
    return ExperimentResult(
        name="Figure 10: Cell vs Xeon vs Power5 (42_SC)",
        xs=list(bootstrap_counts),
        series={
            "Intel Xeon": XEON_2X_HT.sweep(bootstrap_counts),
            "IBM Power5": POWER5.sweep(bootstrap_counts),
            "Cell (MGPS)": cell_times,
        },
        results=results,
    )
