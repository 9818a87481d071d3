"""Bridge between the real phylogenetics code and the Cell simulator.

The schedulers see RAxML as a stream of off-loadable kernel invocations.
This module converts a *recorded* kernel log from an actual inference
(:mod:`repro.phylo.likelihood` counts and sizes every call) into a
:class:`~repro.workloads.taskspec.BootstrapTrace`, so the examples can
run genuine ML tree searches through the simulated machine instead of
profile-synthesized traces.

Per-kernel SPE costs are anchored to the paper's profile: ``newview`` on
the 1167-site 42_SC input averages ~104 us on an SPE, and the parallel
loops have 228 iterations; costs scale linearly in the number of site
patterns, which is how the real kernels behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cell.local_store import CodeImage
from ..workloads.profiles import RAXML_42SC, RaxmlProfile
from ..workloads.taskspec import BootstrapTrace, LoopSpec, OffloadItem, TaskSpec
from .likelihood import KernelLog

__all__ = ["KernelCostModel", "trace_from_kernel_log", "profile_report"]

US = 1e-6
KB = 1024


@dataclass(frozen=True)
class KernelCostModel:
    """Per-pattern SPE/PPE costs of each kernel, anchored to 42_SC.

    ``spe_us_per_pattern[k] * patterns`` is the optimized SPE duration of
    one invocation of kernel ``k``; PPE and naive variants scale by the
    profile-derived factors.  The paper's 228-iteration loops at 1167
    sites give the iterations-per-pattern ratio.
    """

    profile: RaxmlProfile = RAXML_42SC

    @property
    def spe_us_per_pattern(self) -> Dict[str, float]:
        p = self.profile
        return {
            f.name: f.mean_task_us / p.sites for f in p.functions
        }

    def loop_iterations(self, patterns: int) -> int:
        p = self.profile
        return max(1, round(patterns * p.loop_iterations / p.sites))

    def task(self, kernel: str, patterns: int,
             data_key: str = None) -> TaskSpec:
        """Build the TaskSpec of one recorded kernel invocation."""
        if patterns < 1:
            raise ValueError("patterns must be >= 1")
        p = self.profile
        fprof = p.function_by_name(kernel)
        spe_t = self.spe_us_per_pattern[kernel] * patterns * US
        return TaskSpec(
            function=kernel,
            spe_time=spe_t,
            ppe_time=spe_t * p.ppe_slowdown,
            naive_spe_time=spe_t * p.naive_slowdown,
            loop=LoopSpec(
                iterations=self.loop_iterations(patterns),
                coverage=fprof.loop_coverage,
                reduction=fprof.reduction,
                bytes_per_iteration=fprof.bytes_per_iteration,
            ),
            working_set=min(32 * patterns, 96 * KB),
            data_key=data_key,
        )


def trace_from_kernel_log(
    log: KernelLog,
    index: int = 0,
    cost_model: Optional[KernelCostModel] = None,
    mean_gap_us: Optional[float] = None,
    seed: int = 0,
) -> BootstrapTrace:
    """Convert a recorded inference into a replayable off-load trace.

    The event order is preserved (newview bursts during traversals,
    makenewz clusters during branch optimization), so the simulated
    off-load stream has the real application's temporal structure.
    ``scale`` is 1.0: the trace *is* the workload, not a compressed
    stand-in.
    """
    if not log.record or not log.events:
        raise ValueError(
            "kernel log has no recorded events; run the engine with "
            "log.record = True"
        )
    cm = cost_model or KernelCostModel()
    p = cm.profile
    gap_mean = (mean_gap_us if mean_gap_us is not None else p.mean_gap_us) * US
    rng = np.random.default_rng(seed + 7919 * index)

    data_key = f"{p.name}.rep{index}"
    items: List[OffloadItem] = []
    for kernel, patterns in log.events:
        gap = float(rng.gamma(2.0, gap_mean / 2.0))
        items.append(
            OffloadItem(
                ppe_gap=gap, task=cm.task(kernel, patterns, data_key=data_key)
            )
        )

    return BootstrapTrace(
        index=index,
        items=tuple(items),
        tail_ppe=gap_mean,
        scale=1.0,
        code_image=CodeImage(p.name, "serial", p.code_image_kb * KB),
        llp_image=CodeImage(p.name, "llp", p.llp_image_kb * KB),
    )


def profile_report(logs: Sequence[KernelLog]) -> Dict[str, float]:
    """Aggregate kernel statistics over several inferences.

    Returns call counts and call-share percentages — the measured
    analogue of the paper's gprof table (76.8 / 19.6 / 2.37%).
    """
    total_nv = sum(l.newview_calls for l in logs)
    total_ev = sum(l.evaluate_calls for l in logs)
    total_mz = sum(l.makenewz_calls for l in logs)
    total = max(1, total_nv + total_ev + total_mz)
    return {
        "newview_calls": float(total_nv),
        "evaluate_calls": float(total_ev),
        "makenewz_calls": float(total_mz),
        "newview_share": total_nv / total,
        "evaluate_share": total_ev / total,
        "makenewz_share": total_mz / total,
        "makenewz_iterations": float(sum(l.makenewz_iterations for l in logs)),
    }
