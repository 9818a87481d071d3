"""Bootstrap trace generation from a workload profile.

A real RAxML bootstrap off-loads ~267 k likelihood-function invocations.
Simulating every one of them for 128-bootstrap sweeps is unnecessary: the
off-load stream is statistically stationary, so a compressed trace of
``tasks_per_bootstrap`` off-loads with the same duration distribution,
function mix and PPE-gap structure produces the same scheduling dynamics.
Reported times are multiplied by the compression ratio (``trace.scale``).
The scale-invariance of this construction is verified in
``tests/test_traces.py`` and ``tests/test_scaling_invariance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..cell.local_store import CodeImage
from ..sim.rng import RngStreams
from .profiles import RaxmlProfile, RAXML_42SC
from .taskspec import BootstrapTrace, LoopSpec, OffloadItem, TaskSpec

__all__ = ["TraceBuilder", "Workload", "FixedTraceWorkload"]

US = 1e-6
KB = 1024


class TraceBuilder:
    """Builds compressed bootstrap traces from a :class:`RaxmlProfile`."""

    def __init__(self, profile: RaxmlProfile = RAXML_42SC, seed: int = 0) -> None:
        self.profile = profile
        self.rng = RngStreams(seed)
        self._code = CodeImage(profile.name, "serial", profile.code_image_kb * KB)
        self._llp_code = CodeImage(profile.name, "llp", profile.llp_image_kb * KB)
        self._counts: Dict[int, Dict[str, int]] = {}

    def _function_counts(self, n_tasks: int) -> Dict[str, int]:
        """Apportion ``n_tasks`` across functions by invocation frequency.

        A function's invocation share is its time share divided by its
        mean task length (largest-remainder rounding keeps the total).
        Memoized per ``n_tasks``: every bootstrap of a builder shares it.
        """
        counts = self._counts.get(n_tasks)
        if counts is None:
            counts = self._counts[n_tasks] = self._apportion(n_tasks)
        return counts

    def _apportion(self, n_tasks: int) -> Dict[str, int]:
        p = self.profile
        weights = np.array(
            [f.time_share / f.mean_task_us for f in p.functions], dtype=float
        )
        weights /= weights.sum()
        raw = weights * n_tasks
        counts = np.floor(raw).astype(int)
        # Largest-remainder: hand leftover tasks to the biggest remainders.
        for i in np.argsort(raw - counts)[::-1][: n_tasks - counts.sum()]:
            counts[i] += 1
        # Every function appears at least once if we have room for it.
        for i in range(len(counts)):
            if counts[i] == 0 and n_tasks >= len(counts):
                counts[i] += 1
                counts[int(np.argmax(counts))] -= 1
        return {f.name: int(c) for f, c in zip(p.functions, counts)}

    def build(self, index: int, tasks_per_bootstrap: int) -> BootstrapTrace:
        """Build the compressed trace of bootstrap ``index``.

        Traces for different indices differ (independent RNG substreams)
        but each index always produces the identical trace, so scheduler
        policies are compared on exactly the same workload (common random
        numbers).
        """
        if tasks_per_bootstrap < 4:
            raise ValueError("tasks_per_bootstrap must be >= 4")
        p = self.profile
        rng = self.rng.spawn(f"bootstrap{index}").stream("tasks")
        scale = p.tasks_per_bootstrap_full / tasks_per_bootstrap

        counts = self._function_counts(tasks_per_bootstrap)
        specs: List[TaskSpec] = []
        # Gamma-distributed durations with the profile's CV, then exact
        # normalization so the trace's total SPE time matches the profile.
        shape = 1.0 / (p.task_cv**2)
        target_total = p.spe_seconds / scale
        durations: List[float] = []
        functions: List[str] = []
        for fprof in p.functions:
            n = counts[fprof.name]
            if n == 0:
                continue
            mean = fprof.mean_task_us * US
            draw = rng.gamma(shape, mean / shape, size=n)
            durations.extend(draw.tolist())
            functions.extend([fprof.name] * n)
        # Normalize totals so each function keeps its time share exactly.
        per_fn_target = {
            f.name: target_total * f.time_share for f in p.functions
        }
        per_fn_total: Dict[str, float] = {}
        for d, f in zip(durations, functions):
            per_fn_total[f] = per_fn_total.get(f, 0.0) + d
        norm = {
            name: per_fn_target[name] / per_fn_total[name]
            for name in per_fn_total
        }

        # Per-bootstrap working set: the likelihood vectors the kernels
        # stream (two CLVs of 2 x 16 B per site), shared across the
        # bootstrap's tasks -- the unit of reuse for locality-aware
        # scheduling.  Long alignments stream through a bounded
        # double-buffered tile (the SPE code's aggregated DMA), so the
        # *resident* set is capped well below the local store.
        working_set = min(32 * p.sites, 96 * KB)
        data_key = f"{p.name}.b{index}"
        # One (frozen) loop geometry per function, shared by its tasks.
        loops = {
            f.name: LoopSpec(
                iterations=p.loop_iterations,
                coverage=f.loop_coverage,
                reduction=f.reduction,
                bytes_per_iteration=f.bytes_per_iteration,
            )
            for f in p.functions
        }
        ppe_slowdown = p.ppe_slowdown
        naive_slowdown = p.naive_slowdown
        order = rng.permutation(len(durations))
        for i in order:
            fname = functions[i]
            spe_t = durations[i] * norm[fname]
            specs.append(
                TaskSpec(
                    function=fname,
                    spe_time=spe_t,
                    ppe_time=spe_t * ppe_slowdown,
                    naive_spe_time=spe_t * naive_slowdown,
                    loop=loops[fname],
                    working_set=working_set,
                    data_key=data_key,
                )
            )

        # PPE gaps: one before each off-load plus a tail, normalized so
        # that gap + per-off-load runtime overhead (dispatch, signals,
        # completion handling -- which the simulator charges explicitly)
        # reproduces the profile's total PPE time.  The paper's "11 us
        # between consecutive off-loads" includes that scheduler work.
        n = len(specs)
        gaps = rng.gamma(2.0, (p.mean_gap_us * US) / 2.0, size=n + 1)
        gap_budget = p.ppe_seconds / scale - n * p.runtime_overhead_us * US
        if gap_budget <= 0:
            raise ValueError(
                "runtime overhead exceeds the PPE budget; increase "
                "tasks_per_bootstrap or reduce runtime_overhead_us"
            )
        gaps *= gap_budget / gaps.sum()
        items = tuple(
            OffloadItem(ppe_gap=float(g), task=s) for g, s in zip(gaps[:-1], specs)
        )
        return BootstrapTrace(
            index=index,
            items=items,
            tail_ppe=float(gaps[-1]),
            scale=scale,
            code_image=self._code,
            llp_image=self._llp_code,
        )


@dataclass
class Workload:
    """A run of ``bootstraps`` independent tree searches.

    This is the unit the experiment runner consumes: it lazily builds and
    caches one compressed trace per bootstrap.
    """

    bootstraps: int
    tasks_per_bootstrap: int = 1000
    profile: RaxmlProfile = field(default_factory=lambda: RAXML_42SC)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.bootstraps < 1:
            raise ValueError("need at least one bootstrap")
        self._builder = TraceBuilder(self.profile, self.seed)
        self._cache: Dict[int, BootstrapTrace] = {}

    def trace(self, index: int) -> BootstrapTrace:
        if not (0 <= index < self.bootstraps):
            raise IndexError(f"bootstrap index {index} out of range")
        tr = self._cache.get(index)
        if tr is None:
            tr = self._builder.build(index, self.tasks_per_bootstrap)
            self._cache[index] = tr
        return tr

    @property
    def scale(self) -> float:
        return self.trace(0).scale

    def with_bootstraps(self, bootstraps: int) -> "Workload":
        """This workload at another bootstrap count, sharing its traces.

        Bootstrap ``i``'s trace depends only on the profile, seed, index
        and task count, so the two workloads share one builder and one
        trace cache: a sweep over bootstrap counts builds each trace once.
        """
        wl = Workload(bootstraps, self.tasks_per_bootstrap, self.profile,
                      self.seed)
        wl._builder = self._builder
        wl._cache = self._cache
        return wl


@dataclass
class FixedTraceWorkload:
    """A workload over explicitly provided traces.

    Used to schedule synthetic task streams and kernel logs recorded from
    real inferences (see :func:`repro.phylo.trace_from_kernel_log`).
    """

    traces: List["BootstrapTrace"]

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("need at least one trace")

    @property
    def bootstraps(self) -> int:
        return len(self.traces)

    def trace(self, index: int) -> "BootstrapTrace":
        return self.traces[index]

    @property
    def scale(self) -> float:
        return self.traces[0].scale
