"""Workload profile constants from the paper.

Everything here is a number the paper states (Sections 3, 5.1–5.3) or a
value derived arithmetically from stated numbers.  The profile describes
RAxML's execution on the 42_SC input (42 organisms x 1167 nucleotides):
the gprof function breakdown, the one-bootstrap anchor timings, task
granularity on the SPEs, and the loop geometry inside off-loaded tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["FunctionProfile", "RaxmlProfile", "RAXML_42SC"]

US = 1e-6
KB = 1024


@dataclass(frozen=True)
class FunctionProfile:
    """Profile of one off-loadable likelihood function.

    Attributes
    ----------
    name:
        Function name in RAxML (``newview``, ``makenewz``, ``evaluate``).
    time_share:
        Fraction of total likelihood (off-loaded) time spent here.
    loop_coverage:
        Fraction of the function body inside its parallelizable for-loops.
    reduction:
        True when the loop ends in a global reduction (``evaluate`` and
        ``makenewz`` accumulate site log-likelihoods / derivatives, which
        serializes at the master SPE).
    bytes_per_iteration:
        Local-store bytes a loop worker must DMA per loop iteration
        (likelihood vectors x1/x2 and the diagptable slice; Figure 3).
    mean_task_us:
        Mean duration of one off-loaded invocation on an SPE, in us.
    """

    name: str
    time_share: float
    loop_coverage: float
    reduction: bool
    bytes_per_iteration: int
    mean_task_us: float

    def __post_init__(self) -> None:
        if not (0.0 < self.time_share <= 1.0):
            raise ValueError(f"bad time_share {self.time_share}")
        if not (0.0 <= self.loop_coverage <= 1.0):
            raise ValueError(f"bad loop_coverage {self.loop_coverage}")
        if self.mean_task_us <= 0:
            raise ValueError("mean_task_us must be positive")


@dataclass(frozen=True)
class RaxmlProfile:
    """End-to-end profile of one RAxML bootstrap on one Cell.

    The anchor timings come straight from the paper:

    * ``ppe_only_seconds`` — 38.23 s before any off-loading (Section 5.1);
    * ``naive_offload_seconds`` — 50.38 s with unoptimized SPE code;
    * ``optimized_seconds`` — 28.46 s fully optimized, EDTLP, 1 worker
      (Table 1, row 1);
    * ``spe_fraction`` — 90% of optimized execution is SPE compute;
    * ``mean_task_us`` / ``mean_gap_us`` — 96 us mean off-loaded task and
      11 us mean PPE compute between off-loads (Section 5.2);
    * ``loop_iterations`` — 228 parallel-loop iterations for 42_SC
      (Section 5.3).
    """

    name: str = "raxml-42SC"
    taxa: int = 42
    sites: int = 1167
    ppe_only_seconds: float = 38.23
    naive_offload_seconds: float = 50.38
    optimized_seconds: float = 28.46
    spe_fraction: float = 0.90
    mean_task_us: float = 96.0
    mean_gap_us: float = 11.0
    task_cv: float = 0.40
    runtime_overhead_us: float = 2.7
    loop_iterations: int = 228
    code_image_kb: int = 117
    llp_image_kb: int = 123
    functions: Tuple[FunctionProfile, ...] = (
        FunctionProfile(
            name="newview",
            time_share=0.768 / 0.9877,
            loop_coverage=0.71,
            reduction=False,
            bytes_per_iteration=144,
            mean_task_us=104.0,
        ),
        FunctionProfile(
            name="makenewz",
            time_share=0.196 / 0.9877,
            loop_coverage=0.68,
            reduction=True,
            bytes_per_iteration=112,
            mean_task_us=88.0,
        ),
        FunctionProfile(
            name="evaluate",
            time_share=0.0237 / 0.9877,
            loop_coverage=0.65,
            reduction=True,
            bytes_per_iteration=96,
            mean_task_us=48.0,
        ),
    )

    def __post_init__(self) -> None:
        total = sum(f.time_share for f in self.functions)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"function time shares sum to {total}, expected 1")
        if not (0.0 < self.spe_fraction < 1.0):
            raise ValueError("spe_fraction must be in (0, 1)")

    # -- derived anchors ----------------------------------------------------
    @property
    def spe_seconds(self) -> float:
        """Total SPE compute per bootstrap (optimized)."""
        return self.optimized_seconds * self.spe_fraction

    @property
    def ppe_seconds(self) -> float:
        """Total PPE compute per bootstrap (the non-off-loaded 10%)."""
        return self.optimized_seconds * (1.0 - self.spe_fraction)

    @property
    def tasks_per_bootstrap_full(self) -> int:
        """Number of off-loads a real (unscaled) bootstrap performs."""
        return round(self.spe_seconds / (self.mean_task_us * US))

    @property
    def ppe_slowdown(self) -> float:
        """t_ppe / t_spe for the off-loadable code.

        On the PPE, the off-loadable portion takes the PPE-only total minus
        the never-off-loaded part.
        """
        offloadable_on_ppe = self.ppe_only_seconds - self.ppe_seconds
        return offloadable_on_ppe / self.spe_seconds

    @property
    def naive_slowdown(self) -> float:
        """Naive (unoptimized) SPE time / optimized SPE time."""
        naive_spe = self.naive_offload_seconds - self.ppe_seconds
        return naive_spe / self.spe_seconds

    def function_by_name(self, name: str) -> FunctionProfile:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function profile named {name!r}")

    def scaled_to_sites(self, n_sites: int) -> "RaxmlProfile":
        """Profile for an alignment of ``n_sites`` nucleotides.

        Likelihood work is linear in alignment length: task durations,
        the PPE-only/naive/optimized anchors, and the parallel-loop
        iteration counts all scale with ``n_sites / 1167`` (Section 5.3:
        "alignments that have a larger number of nucleotides per organism
        have more loop iterations to distribute across SPEs").  Per-task
        PPE gaps (tree bookkeeping) do not scale, so longer alignments
        also have a better compute-to-dispatch ratio.
        """
        if n_sites < 1:
            raise ValueError("n_sites must be positive")
        f = n_sites / self.sites
        total_scale = (
            self.spe_fraction * f + (1.0 - self.spe_fraction)
        )
        return replace(
            self,
            name=f"{self.name.split('@')[0]}@{n_sites}",
            sites=n_sites,
            ppe_only_seconds=self.ppe_only_seconds
            * ((self.ppe_only_seconds - self.ppe_seconds) * f
               + self.ppe_seconds) / self.ppe_only_seconds,
            naive_offload_seconds=(self.naive_offload_seconds
                                   - self.ppe_seconds) * f
            + self.ppe_seconds,
            optimized_seconds=self.optimized_seconds * total_scale,
            spe_fraction=self.spe_fraction * f / total_scale,
            mean_task_us=self.mean_task_us * f,
            loop_iterations=max(1, round(self.loop_iterations * f)),
            functions=tuple(
                replace(fn, mean_task_us=fn.mean_task_us * f)
                for fn in self.functions
            ),
        )


RAXML_42SC = RaxmlProfile()
