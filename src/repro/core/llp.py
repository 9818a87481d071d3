"""Loop-level parallelism (LLP): the work-sharing runtime across SPEs.

Implements the mechanism of Section 5.3: a master SPE signals worker SPEs
(one serialized ``mfc_put`` of a ``Pass`` structure per worker), workers
DMA their input chunks from the master's local store / shared memory,
everyone computes a contiguous chunk of the loop, workers return results
via SPE->SPE ``Pass`` sends, and the master serially folds one ``Pass``
per worker (the global-reduction bottleneck the paper calls out) before
committing to main memory.

Two features of the paper's runtime are reproduced exactly:

* **master head start** — the master begins its chunk immediately after
  issuing signals while workers still wait on signal latency + DMA, so a
  naive equal split leaves the master idle at the join;
* **adaptive load unbalancing** — idle time observed at the join across
  repeated invocations of the same loop feeds back into the master's
  chunk fraction until master and workers finish together.

The per-invocation timing is closed-form (everything is deterministic
given the chunk sizes), which keeps simulated event counts tractable;
worker SPE *occupancy* is still realized in simulated time by the runtime
(see :mod:`repro.core.runtime`), so MGPS observes genuine SPE busyness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..cell.mfc import MFC
from ..cell.params import CellParams
from ..obs.metrics import NULL_REGISTRY, registry_of
from ..sim.trace import Sinks, tracer_of
from ..validation import require_finite
from ..workloads.taskspec import TaskSpec

__all__ = [
    "LLPConfig",
    "LLPInvocation",
    "LoopParallelModel",
    "split_iterations",
    "LoopSchedule",
    "StaticSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "AdaptiveChunkSchedule",
    "register_loop_schedule",
    "resolve_loop_schedule",
    "available_loop_schedules",
]

US = 1e-6


def split_iterations(n: int, k: int, master_fraction: float) -> List[int]:
    """Split ``n`` loop iterations over ``k`` SPEs, master first.

    The master receives ``round(master_fraction * n)`` (clamped so every
    SPE gets at least one iteration); workers split the remainder as
    evenly as possible, earlier workers taking the odd leftovers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if k == 1:
        return [n]
    if not (0.0 <= master_fraction < 1.0):
        raise ValueError(
            f"master_fraction must be within [0, 1) when k > 1, "
            f"got {master_fraction!r}"
        )
    if k > n:
        raise ValueError(
            f"cannot split {n} iterations over {k} SPEs without empty chunks"
        )
    m = int(round(master_fraction * n))
    m = max(1, min(m, n - (k - 1)))
    rest = n - m
    base, extra = divmod(rest, k - 1)
    chunks = [m] + [base + (1 if i < extra else 0) for i in range(k - 1)]
    assert sum(chunks) == n
    return chunks


@dataclass(frozen=True)
class LLPConfig:
    """Tunable constants of the work-sharing runtime.

    ``signal_issue`` is the master-side cost of posting one ``mfc_put``;
    ``pass_process`` is the master-side cost of folding one returned
    ``Pass`` structure (reduction accumulate / commit confirmation);
    ``setup`` is the per-invocation fixed cost (loop bounds distribution,
    barrier arming).  ``alpha`` is the feedback gain of adaptive
    unbalancing; ``adaptive=False`` freezes the master fraction at the
    equal split (ablation).

    ``schedule`` names the :class:`LoopSchedule` used to distribute
    iterations (``static`` — the paper's single split — is the default;
    see :func:`available_loop_schedules`).  ``chunk_size`` parameterizes
    the chunk-queue schedules: the fixed chunk of ``dynamic`` and the
    floor chunk of ``guided`` (0 = schedule-specific auto).
    """

    signal_issue: float = 0.5 * US
    pass_process: float = 2.75 * US
    setup: float = 2.0 * US
    alpha: float = 0.3
    adaptive: bool = True
    head_start_bias: float = 0.0  # additive initial bias on master fraction
    schedule: str = "static"
    chunk_size: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be within [0, 1]")
        for fieldname in ("signal_issue", "pass_process", "setup"):
            require_finite(fieldname, getattr(self, fieldname))
        if self.chunk_size < 0:
            raise ValueError("chunk_size must be non-negative")
        resolve_loop_schedule(self.schedule)  # unknown names raise here


class LLPInvocation(NamedTuple):
    """Timing breakdown of one loop-parallel task invocation.

    A named tuple rather than a frozen dataclass: just as immutable, and
    built without a per-field ``object.__setattr__``.
    """

    duration: float          # total task time on the master SPE
    k: int                   # SPEs used (master + workers)
    chunks: Tuple[int, ...]  # iteration split, master first
    master_compute: float
    worker_start_delay: float
    join_idle: float         # master idle at the join (pre-reduction)
    reduction_time: float
    master_fraction: float   # fraction used for this invocation
    schedule: str = "static"            # LoopSchedule that produced it
    chunk_counts: Tuple[int, ...] = ()  # chunks handed to each SPE


class LoopSchedule:
    """How loop iterations are distributed over the ``k`` SPEs.

    A schedule answers one question per invocation — who computes what —
    through :meth:`plan`, which returns ``(per_spe, sequence)`` with
    exactly one of the two set:

    * ``per_spe`` — a pre-computed partition, one chunk per SPE (master
      first), like the paper's single work-sharing split;
    * ``sequence`` — an ordered queue of chunk sizes handed out
      first-come-first-served as SPEs free up (self-scheduling).

    Schedules are stateless singletons; adaptive state lives on the
    :class:`LoopParallelModel` so independent runs never share feedback.
    :meth:`feedback` is called after every invocation with the realized
    per-SPE iteration shares and idle times at the join.
    """

    name = "schedule"
    description = ""

    def plan(
        self, model: "LoopParallelModel", function: str, n: int, k: int
    ) -> Tuple[Optional[List[int]], Optional[List[int]]]:
        raise NotImplementedError

    def feedback(
        self,
        model: "LoopParallelModel",
        function: str,
        k: int,
        shares: List[int],
        idle: List[float],
        t_iter: float,
    ) -> None:
        """Post-invocation adaptation hook (default: none)."""


class StaticSchedule(LoopSchedule):
    """The paper's single split with adaptive master load unbalancing."""

    name = "static"
    description = ("one chunk per SPE, master fraction tuned by the "
                   "paper's load unbalancing (default; bit-identical to "
                   "the pre-schedule runtime)")

    def plan(self, model, function, n, k):
        return split_iterations(n, k, model.master_fraction(function, k)), None


class DynamicSchedule(LoopSchedule):
    """Self-scheduling: fixed chunks handed out first-come-first-served."""

    name = "dynamic"
    description = ("self-scheduling with a fixed chunk size "
                   "(LLPConfig.chunk_size; 0 = n / 4k), grabbed "
                   "first-come-first-served")

    def plan(self, model, function, n, k):
        c = min(n, model.config.chunk_size or max(1, n // (4 * k)))
        seq = [c] * (n // c)
        if n % c:
            seq.append(n % c)
        return None, seq


class GuidedSchedule(LoopSchedule):
    """Guided self-scheduling: chunks shrink as the loop drains."""

    name = "guided"
    description = ("guided self-scheduling: each grab takes "
                   "ceil(remaining / k) iterations, floored at "
                   "LLPConfig.chunk_size (0 = 1)")

    def plan(self, model, function, n, k):
        floor_c = max(1, model.config.chunk_size)
        seq: List[int] = []
        remaining = n
        while remaining > 0:
            c = min(remaining, max(floor_c, -(-remaining // k)))
            seq.append(c)
            remaining -= c
        return None, seq


class AdaptiveChunkSchedule(LoopSchedule):
    """The paper's load unbalancing generalized to every SPE.

    Where :class:`StaticSchedule` tunes only the master's fraction, this
    schedule keeps a full per-SPE ratio vector per ``(function, k)`` and
    nudges it toward each SPE's observed capacity — its computed share
    plus whatever it could have computed during its idle time at the
    join.
    """

    name = "adaptive"
    description = ("per-SPE chunk ratios tuned from idle times observed "
                   "at the join, keyed by (function, k) like the paper's "
                   "master fraction")

    def plan(self, model, function, n, k):
        return _largest_remainder(n, model.chunk_ratios(function, k)), None

    def feedback(self, model, function, k, shares, idle, t_iter):
        if not model.config.adaptive or t_iter <= 0.0:
            return
        capacity = [s + i / t_iter for s, i in zip(shares, idle)]
        total = sum(capacity)
        if total <= 0.0:
            return
        a = model.config.alpha
        old = model.chunk_ratios(function, k)
        new = [
            max(1e-3, (1.0 - a) * r + a * (c / total))
            for r, c in zip(old, capacity)
        ]
        s = sum(new)
        model._ratios[(function, k)] = [r / s for r in new]


def _largest_remainder(n: int, weights: List[float]) -> List[int]:
    """Apportion ``n`` iterations by ``weights``, each share >= 1."""
    total = sum(weights)
    quotas = [w / total * n for w in weights]
    counts = [max(1, int(q)) for q in quotas]
    diff = n - sum(counts)
    if diff > 0:
        order = sorted(
            range(len(weights)),
            key=lambda i: quotas[i] - int(quotas[i]),
            reverse=True,
        )
        idx = 0
        while diff > 0:
            counts[order[idx % len(order)]] += 1
            idx += 1
            diff -= 1
    while diff < 0:  # min-1 clamping overshot on tiny loops
        i = max(range(len(counts)), key=lambda j: counts[j])
        counts[i] -= 1
        diff += 1
    return counts


_SCHEDULES: Dict[str, LoopSchedule] = {}


def register_loop_schedule(
    schedule: LoopSchedule, replace: bool = False
) -> LoopSchedule:
    """Register ``schedule`` under its ``name``; returns the schedule."""
    if schedule.name in _SCHEDULES and not replace:
        raise ValueError(
            f"loop schedule {schedule.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _SCHEDULES[schedule.name] = schedule
    return schedule


def resolve_loop_schedule(name: str) -> LoopSchedule:
    """Look up a loop schedule; unknown names list every known one."""
    if name not in _SCHEDULES:
        known = ", ".join(sorted(_SCHEDULES))
        raise ValueError(
            f"unknown loop schedule {name!r}; known schedules: {known}"
        )
    return _SCHEDULES[name]


def available_loop_schedules() -> List[LoopSchedule]:
    """Every registered loop schedule, sorted by name."""
    return [_SCHEDULES[name] for name in sorted(_SCHEDULES)]


for _schedule in (
    StaticSchedule(), DynamicSchedule(), GuidedSchedule(),
    AdaptiveChunkSchedule(),
):
    register_loop_schedule(_schedule)
del _schedule


class LoopParallelModel:
    """Computes LLP invocation timings and adapts chunk fractions.

    One instance is shared by all SPEs of a run; adaptive state is keyed
    by ``(function, k)`` exactly as the paper tunes "iteration
    distribution in each invocation" of the *same loop*.
    """

    def __init__(
        self,
        params: CellParams,
        config: Optional[LLPConfig] = None,
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
        clock: Optional[object] = None,
    ) -> None:
        self.params = params
        self.config = config or LLPConfig()
        # Optional trace sink for per-invocation chunk fan-out detail
        # (``llp_fanout`` events).  ``clock`` supplies the simulated
        # timestamp (the model itself is a synchronous closed form).
        # Resolving the sinks leaves None for anything off, so the
        # invoke hot path pays one ``is None`` check per sink.
        sinks = Sinks.resolve(tracer, metrics)
        self.tracer = tracer_of(sinks)
        self.clock = clock
        self.mfc = MFC(params)
        self._schedule = resolve_loop_schedule(self.config.schedule)
        self._fraction: Dict[Tuple[str, int], float] = {}
        self._ratios: Dict[Tuple[str, int], List[float]] = {}
        # Static-split geometry, keyed (loop, k, cross_cell_workers,
        # chunks); see ``_split_geometry``.
        self._splits: Dict[tuple, tuple] = {}
        self.invocations = 0
        self.total_join_idle = 0.0
        m = registry_of(sinks)
        # With the null registry every observe is a no-op; one flag lets
        # the per-invocation hot path skip the calls entirely.
        self._metrics_on = m is not NULL_REGISTRY
        self._m_invocations = m.counter(
            "llp.invocations", "loop-parallel task invocations"
        )
        self._m_chunk = m.histogram(
            "llp.chunk_size",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            help="iterations per SPE chunk (master and workers)",
        )
        self._m_join_idle = m.histogram(
            "llp.join_idle_us", help="master idle time at the join, us"
        )
        self._m_degree = m.histogram(
            "llp.degree", buckets=(1, 2, 3, 4, 5, 6, 7, 8, 16),
            help="SPEs per loop-parallel invocation",
        )
        self._m_fraction = m.gauge(
            "llp.master_fraction", "master chunk fraction of the last invocation"
        )

    # -- adaptive state ---------------------------------------------------
    def master_fraction(self, function: str, k: int) -> float:
        """Current master chunk fraction for ``(function, k)``."""
        key = (function, k)
        if key not in self._fraction:
            self._fraction[key] = min(0.9, 1.0 / k + self.config.head_start_bias)
        return self._fraction[key]

    def _update_fraction(self, function: str, k: int, f_opt: float) -> None:
        if not self.config.adaptive:
            return
        key = (function, k)
        f = self._fraction[key]
        a = self.config.alpha
        self._fraction[key] = min(0.9, max(1e-3, (1 - a) * f + a * f_opt))

    def chunk_ratios(self, function: str, k: int) -> List[float]:
        """Per-SPE chunk ratios for ``(function, k)`` (adaptive schedule)."""
        key = (function, k)
        if key not in self._ratios:
            self._ratios[key] = [1.0 / k] * k
        return self._ratios[key]

    def _emit_fanout(
        self,
        task: TaskSpec,
        actor: str,
        base: float,
        master_end: float,
        worker_starts: Sequence[float],
        worker_ends: Sequence[float],
        inv: LLPInvocation,
    ) -> None:
        """Chunk fan-out/join detail for the causal span layer.

        Offsets are relative to the invocation's start (``base`` covers
        setup + the serial fraction), so a consumer can lay master and
        worker chunk spans on the simulated timeline.
        """
        now = self.clock() if self.clock is not None else 0.0
        self.tracer.emit(
            now, "llp", "model", "llp_fanout",
            function=task.function, k=inv.k, master=actor,
            schedule=inv.schedule, base=base,
            master_end=master_end,
            worker_starts=tuple(worker_starts),
            worker_ends=tuple(worker_ends),
            join_idle=inv.join_idle, reduction=inv.reduction_time,
            duration=inv.duration,
        )

    # -- invocation timing --------------------------------------------------
    def invoke(
        self,
        task: TaskSpec,
        k: int,
        cross_cell_workers: int = 0,
        actor: str = "",
    ) -> LLPInvocation:
        """Timing of ``task`` executed with work-sharing over ``k`` SPEs.

        ``cross_cell_workers`` counts workers on the other Cell of a
        blade, whose signals pay the inter-chip penalty.  ``actor``
        names the master SPE in emitted ``llp_fanout`` trace events so
        the causal layer can attribute concurrent invocations.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        loop = task.loop
        if loop is not None:
            k = min(k, loop.iterations)
        # Degenerate loops (no coverage, or so little that per-iteration
        # time underflows) run serially.
        if (
            k == 1
            or loop is None
            or loop.coverage <= 0.0
            or task.spe_time * loop.coverage / loop.iterations <= 1e-15
        ):
            return LLPInvocation(
                duration=task.spe_time, k=1, chunks=(loop.iterations if loop else 0,),
                master_compute=task.spe_time, worker_start_delay=0.0,
                join_idle=0.0, reduction_time=0.0, master_fraction=1.0,
                schedule=self.config.schedule, chunk_counts=(1,),
            )
        if self._schedule.name != "static":
            return self._invoke_scheduled(task, k, cross_cell_workers, actor)
        cfg = self.config
        p = self.params

        serial = task.spe_time * (1.0 - loop.coverage)
        loop_total = task.spe_time * loop.coverage
        t_iter = loop_total / loop.iterations

        f = self.master_fraction(task.function, k)
        chunks = tuple(split_iterations(loop.iterations, k, f))

        # Master: issue k-1 signals back to back, then compute its chunk.
        t_send = (k - 1) * cfg.signal_issue
        master_compute = chunks[0] * t_iter
        master_end = t_send + master_compute

        # Workers: signal latency (+ cross-cell penalty for some), input
        # DMA (concurrent streams share the EIB), compute, Pass back.
        # Everything but the compute term is fixed by the split, so it
        # comes from the per-split geometry memo.
        key = (loop, k, cross_cell_workers, chunks)
        geometry = self._splits.get(key)
        if geometry is None:
            geometry = self._splits[key] = self._split_geometry(
                loop, k, cross_cell_workers, chunks)
        workers, start_delays, d_mean = geometry
        spe_sig = p.spe_spe_signal
        worker_ends = [start + w_iters * t_iter + spe_sig + back
                       for w_iters, start, back in workers]

        last_worker = max(worker_ends)
        join = max(master_end, last_worker)
        join_idle = join - master_end
        # Master folds one Pass per worker, serially.
        reduction = (k - 1) * cfg.pass_process
        duration = cfg.setup + serial + join + reduction

        # Feedback from measured idle time (the paper's mechanism: "timing
        # idle periods in the SPEs across multiple invocations of the same
        # loop").  A positive imbalance means the workers finished after
        # the master (master idled at the join) -> the master should take
        # more iterations.  Moving x iterations to the master changes the
        # finish-time gap by x * t_iter * (1 + 1/(k-1)).
        imbalance = last_worker - master_end
        delta_iters = imbalance / (t_iter * (1.0 + 1.0 / (k - 1)))
        self._update_fraction(
            task.function, k, f + delta_iters / loop.iterations
        )

        self.invocations += 1
        self.total_join_idle += join_idle
        if self._metrics_on:
            self._m_invocations.inc()
            self._m_degree.observe(k)
            for c in chunks:
                self._m_chunk.observe(c)
            self._m_join_idle.observe(join_idle * 1e6)
            self._m_fraction.set(f)
        inv = LLPInvocation(
            duration=duration,
            k=k,
            chunks=chunks,
            master_compute=master_compute,
            worker_start_delay=d_mean,
            join_idle=join_idle,
            reduction_time=reduction,
            master_fraction=f,
            schedule="static",
            chunk_counts=(1,) * k,
        )
        if self.tracer is not None:
            self._emit_fanout(task, actor, cfg.setup + serial, master_end,
                              start_delays, worker_ends, inv)
        return inv

    def _split_geometry(
        self, loop, k: int, cross_cell_workers: int, chunks: Tuple[int, ...]
    ) -> Tuple[Tuple[Tuple[int, float, float], ...], Tuple[float, ...], float]:
        """The parts of a static split's timing that ``t_iter`` leaves alone.

        Returns one ``(iterations, start, back)`` triple per worker, the
        worker start delays, and their mean.  ``start`` is the signal
        issue slot, signal latency (+ inter-chip hop for the last
        ``cross_cell_workers``) and input DMA; ``back`` is the result
        DMA, 0.0 for a reduction loop.  Every term depends only on the
        memo key ``(loop, k, cross_cell_workers, chunks)`` and on the
        model's fixed params, config and MFC.  The caller sums them left
        to right as ``start + w * t_iter + sig + back``, so every float
        equals the one computed without the memo.  The DMA timings are
        memoized by the MFC per byte count.
        """
        transfer_time = self.mfc.transfer_time
        issue = self.config.signal_issue
        spe_sig = self.params.spe_spe_signal
        hop_sig = spe_sig + 0.5 * US  # inter-chip hop
        first_cross = (k - 1) - cross_cell_workers
        in_bytes = loop.bytes_per_iteration
        out_bytes = max(16, in_bytes // 2)
        workers = []
        for j, w_iters in enumerate(chunks[1:]):
            sig = hop_sig if j >= first_cross else spe_sig
            fetch = transfer_time(max(16, w_iters * in_bytes), k - 1)
            start = (j + 1) * issue + sig + fetch
            back = (0.0 if loop.reduction
                    else transfer_time(max(16, w_iters * out_bytes), k - 1))
            workers.append((w_iters, start, back))
        starts = tuple(start for _, start, _ in workers)
        return tuple(workers), starts, sum(starts) / len(starts)

    def _invoke_scheduled(
        self,
        task: TaskSpec,
        k: int,
        cross_cell_workers: int,
        actor: str = "",
    ) -> LLPInvocation:
        """Invocation timing under a non-static :class:`LoopSchedule`.

        The signalling protocol is the static split's: the master issues
        ``k-1`` serialized signals and starts computing; worker ``j``
        becomes available after its signal latency (+ inter-chip hop for
        cross-cell workers).  Chunk-queue schedules then hand chunks to
        whichever SPE frees up earliest; each grab costs one
        ``signal_issue`` and workers DMA each chunk's input.
        """
        cfg = self.config
        p = self.params
        loop = task.loop
        n = loop.iterations
        serial = task.spe_time * (1.0 - loop.coverage)
        t_iter = task.spe_time * loop.coverage / n

        avail = [(k - 1) * cfg.signal_issue]
        for j in range(k - 1):
            sig = p.spe_spe_signal
            if j >= (k - 1) - cross_cell_workers:
                sig += 0.5 * US  # inter-chip hop
            avail.append((j + 1) * cfg.signal_issue + sig)

        per_spe, sequence = self._schedule.plan(self, task.function, n, k)
        assignments: List[List[int]] = [[] for _ in range(k)]
        ends = list(avail)
        if per_spe is not None:
            for i, c in enumerate(per_spe):
                if c <= 0:
                    continue
                assignments[i].append(c)
                fetch = 0.0 if i == 0 else self.mfc.transfer_time(
                    max(16, c * loop.bytes_per_iteration), concurrent=k - 1
                )
                ends[i] += fetch + c * t_iter
        else:
            for c in sequence:
                i = min(range(k), key=lambda idx: (ends[idx], idx))
                assignments[i].append(c)
                fetch = 0.0 if i == 0 else self.mfc.transfer_time(
                    max(16, c * loop.bytes_per_iteration), concurrent=k - 1
                )
                ends[i] += cfg.signal_issue + fetch + c * t_iter
        shares = [sum(a) for a in assignments]
        assert sum(shares) == n, (self._schedule.name, shares, n)

        # Workers: one Pass back each, plus the commit of their whole
        # result set when the loop is not a reduction.
        for i in range(1, k):
            commit = 0.0
            if shares[i] and not loop.reduction:
                commit = self.mfc.transfer_time(
                    max(16, shares[i] * max(16, loop.bytes_per_iteration // 2)),
                    concurrent=k - 1,
                )
            ends[i] += p.spe_spe_signal + commit

        master_end = ends[0]
        join = max(ends)
        join_idle = join - master_end
        reduction = (k - 1) * cfg.pass_process
        duration = cfg.setup + serial + join + reduction

        self._schedule.feedback(
            self, task.function, k, shares, [join - e for e in ends], t_iter
        )

        f = shares[0] / n
        self.invocations += 1
        self.total_join_idle += join_idle
        if self._metrics_on:
            self._m_invocations.inc()
            self._m_degree.observe(k)
            for per_spe_chunks in assignments:
                for c in per_spe_chunks:
                    self._m_chunk.observe(c)
            self._m_join_idle.observe(join_idle * 1e6)
            self._m_fraction.set(f)
        delays = avail[1:]
        inv = LLPInvocation(
            duration=duration,
            k=k,
            chunks=tuple(shares),
            master_compute=shares[0] * t_iter,
            worker_start_delay=sum(delays) / len(delays),
            join_idle=join_idle,
            reduction_time=reduction,
            master_fraction=f,
            schedule=self._schedule.name,
            chunk_counts=tuple(len(a) for a in assignments),
        )
        if self.tracer is not None:
            self._emit_fanout(task, actor, cfg.setup + serial, master_end,
                              delays, ends[1:], inv)
        return inv
