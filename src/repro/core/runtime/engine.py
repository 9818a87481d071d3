"""The off-load engine: shared mechanics beneath every scheduling policy.

One :class:`OffloadEngine` drives the :class:`~repro.cell.CellMachine`
for all schedulers.  It owns everything the paper's runtimes have in
common — SPE acquisition against the pool, code-image residency, working
set staging (DMA timing), the granularity test, cross-task memory
contention, the result ledger, and the *single* fault-tolerant off-load
path (retry/backoff/watchdog/PPE-fallback/blacklist) — and delegates
every decision to a bound
:class:`~repro.core.runtime.policy.SchedulingPolicy`.

Two policy attributes select the wait discipline without duplicating the
off-load path per scheduler:

* ``policy.pinned`` — off-load to ``ctx.pinned_spe`` (no pool, no
  workers, the dispatcher keeps ownership);
* ``policy.spin`` — busy-wait on the PPE for completion instead of
  blocking (a spinning process observes the attempt's fate directly, so
  the tolerant path needs no watchdog for it).

The Linux baseline is ``pinned + spin``; EDTLP and everything built on
it is ``pooled + blocking``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set

from ...cell.machine import CellMachine
from ...cell.spe import SPE
from ...faults.tolerance import TolerancePolicy
from ...obs.metrics import registry_of
from ...obs.spans import SpanRecorder
from ...sim.engine import Environment
from ...sim.events import Event
from ...sim.trace import Sinks, Tracer, tracer_of
from ...workloads.taskspec import BootstrapTrace, TaskSpec
from ..granularity import GranularityGovernor
from ..llp import LLPConfig, LoopParallelModel
from ..results import ResultLedger
from .context import ProcContext, RuntimeStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...faults.injector import FaultInjector
    from .policy import SchedulingPolicy

__all__ = ["OffloadEngine"]


class OffloadEngine:
    """Policy-agnostic off-load mechanics (dispatch, code, execute, signal)."""

    def __init__(
        self,
        env: Environment,
        machine: CellMachine,
        granularity_enabled: bool = True,
        optimized: bool = True,
        llp_config: Optional[LLPConfig] = None,
        offload_enabled: bool = True,
        tracer: Optional[Tracer] = None,
        locality_aware: bool = False,
        metrics: Optional[object] = None,
        faults: Optional["FaultInjector"] = None,
        tolerance: Optional[TolerancePolicy] = None,
        *,
        policy: "SchedulingPolicy",
    ) -> None:
        self.env = env
        self.machine = machine
        self.cell = machine.cell_params
        self.optimized = optimized
        self.offload_enabled = offload_enabled
        self.locality_aware = locality_aware
        # One bundle for the whole sink fan-out, overlaying any sink
        # given here on the environment's.  It is None when every sink
        # is off — the benchmarking configuration — so the off-load hot
        # path skips all recording calls and allocates nothing for them.
        self.sinks = Sinks.resolve(tracer, metrics, base=env.sinks)
        self.tracer = tracer_of(self.sinks)
        self.metrics = registry_of(self.sinks)
        self.spans = SpanRecorder(self.tracer, env)
        self.granularity = GranularityGovernor(
            t_comm=self.cell.ppe_spe_signal, enabled=granularity_enabled,
            metrics=self.metrics,
        )
        self.llp_model = LoopParallelModel(
            self.cell, llp_config, metrics=self.metrics,
            tracer=self.tracer, clock=lambda: env.now,
        )
        self.stats = RuntimeStats()
        self._active_sources: Set[int] = set()
        # Fault tolerance: ``faults`` is the injector realizing a plan on
        # this machine (None = fault-free fast path, byte-identical to the
        # pre-fault-tolerance runtime); ``tolerance`` configures the
        # retry/watchdog/blacklist/fallback machinery.
        self.faults = faults
        self.tolerance = tolerance or TolerancePolicy()
        self._consec_failures: Dict[str, int] = {}
        if faults is not None:
            faults.add_listener(self._notify_capacity_change)
        # Application-result ledger: one chained digest per bootstrap,
        # recorded by the worker processes via note_task_complete.  The
        # run digest is the bit-identity witness of the fault-tolerance
        # invariant (pure wall-clock cost; simulated time is untouched).
        self.ledger = ResultLedger()
        self._current_bootstrap: Dict[int, int] = {}
        m = self.metrics
        self._m_offloads = m.counter("runtime.offloads", "SPE off-load dispatches")
        self._m_fallbacks = m.counter(
            "runtime.ppe_fallbacks", "throttled tasks executed on the PPE"
        )
        self._m_waits = m.counter(
            "runtime.offload_waits", "off-loads that blocked for a free SPE"
        )
        self._m_code_loads = m.counter(
            "runtime.code_loads", "SPE code-image (re)loads"
        )
        self._m_data_hits = m.counter("runtime.data_hits")
        self._m_data_misses = m.counter("runtime.data_misses")
        self._m_offload_latency = m.histogram(
            "runtime.offload_latency_us",
            help="dispatch-to-completion latency of SPE off-loads, us",
        )
        self._m_retries = m.counter(
            "runtime.offload_retries", "failed SPE attempts that were retried"
        )
        self._m_retry_fallbacks = m.counter(
            "runtime.retry_fallbacks",
            "tasks executed on the PPE after exhausting SPE attempts",
        )
        self._m_watchdog = m.counter(
            "runtime.watchdog_timeouts", "off-load attempts abandoned by the watchdog"
        )
        self._m_llp_recoveries = m.counter(
            "runtime.llp_recoveries", "LLP chunks reclaimed from dead workers"
        )
        self._m_blacklists = m.counter(
            "runtime.spe_blacklists", "SPEs retired after consecutive failures"
        )
        # Bind the decision layer last: a policy may size windows off
        # the machine/metrics created above.
        self.policy = policy
        policy.bind(self)
        self.name = policy.name

    # -- bookkeeping hooks ----------------------------------------------------
    def note_bootstrap_start(self, ctx: ProcContext, index: int) -> None:
        self._active_sources.add(ctx.rank)
        self._current_bootstrap[ctx.rank] = index
        self.ledger.start(ctx.rank, index)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "proc", f"mpi{ctx.rank}", "span_begin",
                name=f"bootstrap[{index}]", depth=0,
            )

    def note_bootstrap_end(self, ctx: ProcContext, index: int) -> None:
        self._active_sources.discard(ctx.rank)
        self.stats.bootstraps_done += 1
        self.ledger.finish(ctx.rank, index)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "proc", f"mpi{ctx.rank}", "span_end",
                name=f"bootstrap[{index}]", depth=0,
            )

    def note_task_complete(self, ctx: ProcContext, task: TaskSpec) -> None:
        """Fold one completed task into its bootstrap's result chain.

        Called by the worker process after ``offload`` returns.  The
        payload is the task's *content* — identical whether the task ran
        on an SPE, after retries, or on the PPE — so the run digest is
        invariant under any fault plan that lets the run complete.
        """
        index = self._current_bootstrap.get(ctx.rank)
        if index is None:
            return  # task outside a bootstrap (direct runtime tests)
        self.ledger.record(ctx.rank, index, task.ledger_payload)

    @property
    def active_sources(self) -> int:
        return len(self._active_sources)

    def current_sources(self, include_dispatcher: bool = False) -> int:
        """Task sources with work *right now*: distinct owners of busy
        SPEs plus processes queued for an SPE.  This is the paper's "T,
        the number of tasks waiting for off-loading" at a decision point
        (bounded above by the processes still inside a bootstrap/phase).

        ``include_dispatcher`` adds the process performing the current
        off-load, whose task is not yet marked busy at sampling time.
        """
        t = self.machine.n_busy_owners + self.machine.pool.n_waiting
        if include_dispatcher:
            t += 1
        if self._active_sources:
            t = min(max(t, 1), len(self._active_sources))
        return max(1, t)

    def _notify_capacity_change(self) -> None:
        """Fault-listener shim: route capacity changes to the policy."""
        self.policy.on_capacity_change()

    # -- SPE acquisition ------------------------------------------------------
    def _acquire_spe(
        self, ctx: ProcContext, task: TaskSpec
    ) -> Generator[Event, None, SPE]:
        spe = None
        if self.locality_aware and task.data_key is not None:
            # Prefer an idle SPE that already holds this task's data set;
            # on a miss, place the set on the store with the most free
            # space so working sets spread across SPEs.
            spe = self.machine.pool.try_acquire_where(
                lambda s: s.data_resident(task.data_key)
            )
            if spe is None and task.working_set > 0:
                spe = self.machine.pool.try_acquire_best(
                    lambda s: s.local_store.free
                )
        if spe is None:
            spe = self.machine.pool.try_acquire(prefer_cell=ctx.cell_id)
        if spe is None:
            # All SPEs busy: the scheduler parks this process (its PPE
            # context is free for siblings) until a departure.
            self.stats.offload_waits += 1
            if self.sinks is not None:
                self._m_waits.inc()
            spe = yield self.machine.pool.acquire(prefer_cell=ctx.cell_id)
        return spe

    def _acquire_workers(
        self, ctx: ProcContext, spe: SPE, task: TaskSpec
    ) -> List[SPE]:
        k = self.policy.llp_degree(ctx)
        if k <= 1 or not task.parallelizable:
            return []
        return self.machine.pool.try_acquire_many(k - 1, prefer_cell=spe.cell_id)

    # -- mechanics ------------------------------------------------------------
    def _exec_time(self, task: TaskSpec) -> float:
        return task.spe_time if self.optimized else task.naive_spe_time

    def _spe_exec(
        self,
        ctx: ProcContext,
        spe: SPE,
        workers: List[SPE],
        task: TaskSpec,
        trace: BootstrapTrace,
        release: bool,
    ) -> Generator[Event, None, None]:
        """Run ``task`` on ``spe`` (with optional LLP workers); a process."""
        env = self.env
        # PPE -> SPE start signal.
        yield env.timeout(self.machine.signal_latency(ctx.cell_id, spe))
        # Make the right code image resident (t_code; Section 5.4 notes the
        # replacement cost when toggling between serial and LLP variants).
        image = trace.llp_image if workers else trace.code_image
        t_load = spe.load_code(image)
        for w in workers:
            t_load = max(t_load, w.load_code(trace.llp_image))
        if t_load > 0:
            self.stats.code_loads += 1
            if self.sinks is not None:
                self._m_code_loads.inc()
            yield env.timeout(t_load)

        # Stage the task's working set (memory-aware extension): a hit
        # costs nothing, a miss pays the DMA of the data set.
        if task.working_set > 0 and task.data_key is not None:
            moved = spe.load_data(task.data_key, task.working_set)
            if moved:
                self.stats.data_misses += 1
                self.stats.data_bytes_transferred += moved
                if self.sinks is not None:
                    self._m_data_misses.inc()
                yield env.timeout(spe.mfc.transfer_time(moved))
            else:
                self.stats.data_hits += 1
                if self.sinks is not None:
                    self._m_data_hits.inc()

        if workers:
            cross = sum(1 for w in workers if w.cell_id != spe.cell_id)
            inv = self.llp_model.invoke(task, 1 + len(workers), cross,
                                         actor=spe.name)
            duration = inv.duration
            self.stats.llp_invocations += 1
            self.stats.llp_worker_seconds += duration * len(workers)
            if self.tracer is not None:
                # Per-invocation adaptation record: the join-idle series
                # per (function, k) is what the health monitor checks for
                # adaptive-unbalancing convergence, and what the HTML
                # report plots as the chunk-adaptation curve.
                self.tracer.emit(
                    env.now, "llp", spe.name, "llp_invoke",
                    function=task.function, k=inv.k,
                    join_idle_us=inv.join_idle * 1e6,
                    master_fraction=inv.master_fraction,
                    chunks=inv.chunks,
                    schedule=inv.schedule,
                    chunk_counts=inv.chunk_counts,
                )
        else:
            duration = self._exec_time(task)
        owner = ctx.owner
        # Shared XDR / EIB contention: busy SPEs of *other* tasks on the
        # same Cell slow this one (each Cell has its own EIB and memory
        # channel; LLP workers of this task are already priced by the
        # loop model).  Superlinear: the memory controller queues.
        busy_others = self.machine.busy_others(spe.cell_id, owner)
        base_duration = duration
        duration *= 1.0 + min(
            self.cell.memory_contention_cap,
            self.cell.memory_contention_quadratic * busy_others**2,
        )

        for w in workers:
            w.mark_busy(owner)
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "spe", spe.name, "task_start",
                proc=ctx.rank, function=task.function, duration=duration,
                workers=tuple(w.name for w in workers),
            )
            for w in workers:
                self.tracer.emit(
                    env.now, "spe", w.name, "task_start",
                    proc=ctx.rank, function=task.function, role="worker",
                )
        try:
            yield from spe.occupy(duration, owner)
        finally:
            for w in workers:
                w.mark_idle()
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "spe", spe.name, "task_end",
                proc=ctx.rank, function=task.function,
            )
            for w in workers:
                self.tracer.emit(
                    env.now, "spe", w.name, "task_end",
                    proc=ctx.rank, function=task.function, role="worker",
                )
        if release:
            for w in workers:
                self.machine.pool.release(w)
            self.machine.pool.release(spe)
        # Granularity feedback uses the *inherent* kernel time: the test
        # judges whether a function is worth off-loading at all, not the
        # instantaneous bus load (which affects the PPE path too).
        self.granularity.record_spe(task.function, base_duration)
        # SPE -> PPE completion signal.
        yield env.timeout(self.machine.signal_latency(ctx.cell_id, spe))

    def _ppe_fallback(
        self, ctx: ProcContext, task: TaskSpec
    ) -> Generator[Event, None, None]:
        """Execute the task's PPE version in place (throttled off-load)."""
        self.stats.ppe_fallbacks += 1
        if self.sinks is not None:
            self._m_fallbacks.inc()
            if self.tracer is not None:
                self.tracer.emit(
                    self.env.now, "ppe", ctx.actor, "ppe_fallback",
                    function=task.function, duration=task.ppe_time,
                )
        yield ctx.thread.run(task.ppe_time)
        self.granularity.record_ppe(task.function, task.ppe_time)

    # -- the off-load path ----------------------------------------------------
    def offload(
        self, ctx: ProcContext, task: TaskSpec, trace: BootstrapTrace
    ) -> Generator[Event, None, None]:
        """Off-load ``task``, honoring the bound policy's discipline.

        One path for every scheduler: pinned policies use the process's
        own SPE and skip the pool; spinning policies busy-wait on the
        PPE; everyone else blocks.  With a fault plan attached the
        tolerant twin below takes over.
        """
        pinned = self.policy.pinned
        if pinned and ctx.pinned_spe is None:
            raise RuntimeError(f"process {ctx.rank} has no pinned SPE")
        decision = self.granularity.decide(task)
        if (
            not self.offload_enabled
            or not decision.offload
            or not self.policy.admit(ctx, task, decision)
        ):
            yield from self._ppe_fallback(ctx, task)
            return
        if self.faults is not None:
            yield from self._offload_tolerant(ctx, task, trace, decision)
            return
        with self.spans.span("proc", ctx.actor, "offload") as sp:
            if self.tracer is not None:
                sp.set(function=task.function, reason=decision.reason)
            # The process writes the task descriptor / finds an SPE and
            # ships the descriptor — user-level scheduler work either way.
            yield ctx.thread.run(self.cell.dispatch_overhead)
            if pinned:
                spe, workers, release = ctx.pinned_spe, [], False
            else:
                spe = yield from self._acquire_spe(ctx, task)
                workers = self._acquire_workers(ctx, spe, task)
                if self.tracer is not None:
                    sp.set(spe=spe.name, llp_degree=1 + len(workers))
                release = True
            self.stats.offloads += 1
            if self.sinks is not None:
                self._m_offloads.inc()
            start = self.env.now
            self.policy.on_dispatch(start)
            done = self.env.process(
                self._spe_exec(ctx, spe, workers, task, trace,
                               release=release),
                name=ctx.exec_name,
            )
            if self.policy.spin:
                # Busy-wait: the MPI process holds its PPE context while
                # the SPE computes (the baseline's whole pathology).
                yield ctx.thread.spin_until(done)
            else:
                # Block (voluntary context switch): the PPE immediately
                # serves the next runnable MPI process.
                yield done
            self.policy.on_departure(start, self.env.now)
            if self.sinks is not None:
                self._m_offload_latency.observe((self.env.now - start) * 1e6)
            # Completion handling on the PPE before the process continues
            # (Section 5.2's t_comm bookkeeping on the PPE side).
            yield ctx.thread.run(self.cell.completion_overhead)

    # -- fault-tolerant mechanics ---------------------------------------------
    def _note_spe_failure(self, spe: SPE) -> None:
        """Track consecutive failures; blacklist the SPE past the limit."""
        n = self._consec_failures.get(spe.name, 0) + 1
        self._consec_failures[spe.name] = n
        if (
            n >= self.tolerance.blacklist_after
            and spe.alive
            and not spe.blacklisted
        ):
            spe.blacklisted = True
            spe.fail_time = self.env.now
            self.machine.pool.mark_out_of_service(spe)
            self.stats.spe_blacklists += 1
            self._m_blacklists.inc()
            if self.tracer is not None:
                self.tracer.emit(
                    self.env.now, "fault", spe.name, "spe_blacklist",
                    consecutive_failures=n,
                    live_spes=self.machine.pool.n_live,
                )
            self._notify_capacity_change()

    def _note_spe_success(self, spe: SPE) -> None:
        self._consec_failures.pop(spe.name, None)

    def _expected_attempt_time(self, task: TaskSpec) -> float:
        """Expected duration of one attempt, for the watchdog deadline.

        Conservative: the serial SPE time plus maximum memory contention.
        A healthy attempt (even an LLP one) finishes well inside it; only
        a pathologically slow SPE or a lost completion signal trips it.
        """
        return self._exec_time(task) * (1.0 + self.cell.memory_contention_cap)

    def _faulty_dma_time(self, spe: SPE, base: float) -> "tuple[float, bool]":
        """(time to pay, succeeded) for one DMA under the fault plan.

        Mirrors :meth:`~repro.cell.mfc.MFC.transfer_time_with_retries`
        for a transfer whose clean duration is already known: each error
        costs ``dma_retry_penalty`` extra transfers; more errors than the
        policy absorbs means the transfer is abandoned.
        """
        errors = self.faults.dma_errors(spe, self.tolerance.max_dma_retries)
        if errors == 0:
            return base, True
        self.stats.dma_errors += errors
        t = base * (1.0 + self.faults.plan.dma_retry_penalty * errors)
        return t, errors <= self.tolerance.max_dma_retries

    def _spe_exec_faulty(
        self,
        ctx: ProcContext,
        spe: SPE,
        workers: List[SPE],
        task: TaskSpec,
        trace: BootstrapTrace,
        release: bool,
    ) -> Generator[Event, None, str]:
        """Fault-aware twin of :meth:`_spe_exec`; a process.

        Returns a status string as the process value instead of raising
        (the simulation runs strict, so an exception here would abort the
        whole run): ``"ok"``, ``"offload-fail"`` (transient dispatch
        loss), ``"dma-fail"`` (transfer abandoned), ``"spe-dead"``
        (master died before or during execution).  Always returns its
        resources — released here, not by the dispatching process, so a
        watchdog-abandoned attempt cleans up after itself when it
        eventually finishes.
        """
        env = self.env
        faults = self.faults
        policy = self.tolerance

        def _give_back() -> None:
            if release:
                for w in workers:
                    self.machine.pool.release(w)
                self.machine.pool.release(spe)

        death = faults.death_time(spe)
        if death <= env.now or not spe.in_service:
            _give_back()
            return "spe-dead"

        # PPE -> SPE start signal.
        yield env.timeout(self.machine.signal_latency(ctx.cell_id, spe))
        # Transient dispatch loss: the descriptor/signal never arrives.
        if faults.offload_fails(spe):
            _give_back()
            return "offload-fail"

        image = trace.llp_image if workers else trace.code_image
        t_load = spe.load_code(image)
        for w in workers:
            t_load = max(t_load, w.load_code(trace.llp_image))
        if t_load > 0:
            self.stats.code_loads += 1
            if self.sinks is not None:
                self._m_code_loads.inc()
            t_load, ok = self._faulty_dma_time(spe, t_load)
            yield env.timeout(t_load)
            if not ok:
                _give_back()
                return "dma-fail"

        if task.working_set > 0 and task.data_key is not None:
            moved = spe.load_data(task.data_key, task.working_set)
            if moved:
                self.stats.data_misses += 1
                self.stats.data_bytes_transferred += moved
                if self.sinks is not None:
                    self._m_data_misses.inc()
                errors = faults.dma_errors(spe, policy.max_dma_retries)
                if errors:
                    self.stats.dma_errors += errors
                yield env.timeout(
                    spe.mfc.transfer_time_with_retries(
                        moved,
                        n_errors=errors,
                        retry_penalty=faults.plan.dma_retry_penalty,
                    )
                )
                if errors > policy.max_dma_retries:
                    _give_back()
                    return "dma-fail"
            else:
                self.stats.data_hits += 1
                if self.sinks is not None:
                    self._m_data_hits.inc()

        if workers:
            cross = sum(1 for w in workers if w.cell_id != spe.cell_id)
            inv = self.llp_model.invoke(task, 1 + len(workers), cross,
                                         actor=spe.name)
            duration = inv.duration
            self.stats.llp_invocations += 1
            self.stats.llp_worker_seconds += duration * len(workers)
            if self.tracer is not None:
                self.tracer.emit(
                    env.now, "llp", spe.name, "llp_invoke",
                    function=task.function, k=inv.k,
                    join_idle_us=inv.join_idle * 1e6,
                    master_fraction=inv.master_fraction,
                    chunks=inv.chunks,
                    schedule=inv.schedule,
                    chunk_counts=inv.chunk_counts,
                )
            # Mid-loop recovery: a worker that dies inside the busy
            # window forfeits the unexecuted tail of its chunk; the
            # master reclaims and re-executes those iterations serially
            # after the join (plus a signal to detect the loss).
            if task.loop is not None:
                t_iter = (
                    task.spe_time * task.loop.coverage / task.loop.iterations
                )
                for j, w in enumerate(workers):
                    w_death = faults.death_time(w)
                    if w_death >= env.now + duration:
                        continue
                    frac = (
                        1.0
                        if duration <= 0
                        else (env.now + duration - max(w_death, env.now))
                        / duration
                    )
                    chunk = inv.chunks[j + 1] if j + 1 < len(inv.chunks) else 0
                    reclaimed = int(math.ceil(chunk * min(1.0, frac)))
                    extra = reclaimed * t_iter + self.machine.spe_signal_latency(
                        w, spe
                    )
                    duration += extra
                    self.stats.llp_recoveries += 1
                    self._m_llp_recoveries.inc()
                    if self.tracer is not None:
                        self.tracer.emit(
                            env.now, "fault", spe.name, "llp_recovery",
                            worker=w.name, died_at=w_death,
                            reclaimed_iterations=reclaimed,
                            extra_seconds=extra,
                        )
        else:
            duration = self._exec_time(task)

        owner = ctx.owner
        busy_others = self.machine.busy_others(spe.cell_id, owner)
        base_duration = duration
        duration *= 1.0 + min(
            self.cell.memory_contention_cap,
            self.cell.memory_contention_quadratic * busy_others**2,
        )
        # Slow-SPE noise: multiplicative service-time perturbation.
        duration *= faults.service_factor(spe)

        for w in workers:
            w.mark_busy(owner)
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "spe", spe.name, "task_start",
                proc=ctx.rank, function=task.function, duration=duration,
                workers=tuple(w.name for w in workers),
            )
        # Master death inside the busy window loses the task: occupy the
        # SPE only until its planned death, then report the failure.
        if death < env.now + duration:
            avail = max(0.0, death - env.now)
            spe.mark_busy(owner)
            try:
                if avail > 0:
                    yield env.timeout(avail)
            finally:
                spe.mark_idle()
                for w in workers:
                    w.mark_idle()
            if self.tracer is not None:
                self.tracer.emit(
                    env.now, "spe", spe.name, "task_abort",
                    proc=ctx.rank, function=task.function, reason="spe_kill",
                )
            _give_back()
            return "spe-dead"

        try:
            yield from spe.occupy(duration, owner)
        finally:
            for w in workers:
                w.mark_idle()
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "spe", spe.name, "task_end",
                proc=ctx.rank, function=task.function,
            )
        _give_back()
        self.granularity.record_spe(task.function, base_duration)
        # SPE -> PPE completion signal.
        yield env.timeout(self.machine.signal_latency(ctx.cell_id, spe))
        return "ok"

    def _offload_tolerant(
        self, ctx: ProcContext, task: TaskSpec, trace: BootstrapTrace, decision
    ) -> Generator[Event, None, None]:
        """THE fault-tolerant off-load path — the only one in the tree.

        Each attempt dispatches and observes the outcome under the
        policy's discipline:

        * *pinned* policies retry against the same SPE (the baseline has
          no pool to fail over to; a dead or blacklisted pinned SPE means
          every remaining task of this process runs on the PPE), and a
          *spinning* process observes the attempt's fate directly, so no
          watchdog is armed;
        * *pooled* policies acquire a (possibly different) SPE per
          attempt and race the execution against a watchdog deadline; a
          watchdog-abandoned attempt becomes a harmless zombie that
          releases its SPE when it eventually finishes.

        Failed attempts back off exponentially in simulated time; after
        ``max_attempts`` failures — or when no live SPE remains — the
        task executes its PPE version, which cannot fail.
        """
        env = self.env
        tol = self.tolerance
        pinned = self.policy.pinned
        spe = ctx.pinned_spe if pinned else None
        with self.spans.span("proc", ctx.actor, "offload") as sp:
            if self.tracer is not None:
                sp.set(function=task.function, reason=decision.reason)
            for attempt in range(tol.max_attempts):
                if pinned and not spe.in_service:
                    break
                if self.tracer is not None:
                    # Attempt boundary: lets the causal layer rebuild
                    # retries as sibling spans with the backoff waits
                    # between them.
                    self.tracer.emit(
                        env.now, "fault", ctx.actor,
                        "offload_attempt",
                        function=task.function, attempt=attempt,
                    )
                if pinned:
                    yield ctx.thread.run(self.cell.dispatch_overhead)
                    workers: List[SPE] = []
                    release = False
                else:
                    yield ctx.thread.run(self.cell.dispatch_overhead)
                    spe = yield from self._acquire_spe(ctx, task)
                    if spe is None:
                        # Capacity exhausted: every SPE dead or blacklisted.
                        break
                    workers = self._acquire_workers(ctx, spe, task)
                    if self.tracer is not None:
                        sp.set(spe=spe.name, llp_degree=1 + len(workers))
                    release = True
                self.stats.offloads += 1
                if self.sinks is not None:
                    self._m_offloads.inc()
                start = env.now
                self.policy.on_dispatch(start)
                done = env.process(
                    self._spe_exec_faulty(
                        ctx, spe, workers, task, trace, release=release
                    ),
                    name=ctx.exec_name,
                )
                if self.policy.spin:
                    yield ctx.thread.spin_until(done)
                    winner, status = done, done.value
                else:
                    deadline = tol.attempt_deadline(
                        self._expected_attempt_time(task)
                    )
                    winner = yield env.any_of([done, env.timeout(deadline)])
                    status = (
                        done.value if winner is done else "watchdog-timeout"
                    )
                if winner is done and status == "ok":
                    self._note_spe_success(spe)
                    self.policy.on_departure(start, env.now)
                    if self.sinks is not None:
                        self._m_offload_latency.observe(
                            (env.now - start) * 1e6
                        )
                    yield ctx.thread.run(self.cell.completion_overhead)
                    return
                if status == "watchdog-timeout":
                    self.stats.watchdog_timeouts += 1
                    self._m_watchdog.inc()
                self.stats.offload_retries += 1
                if self.sinks is not None:
                    self._m_retries.inc()
                self._note_spe_failure(spe)
                if self.tracer is not None:
                    self.tracer.emit(
                        env.now, "fault", ctx.actor, "offload_retry",
                        function=task.function, status=status,
                        attempt=attempt, spe=spe.name,
                    )
                yield env.timeout(tol.backoff(attempt))
            self.stats.retry_fallbacks += 1
            self._m_retry_fallbacks.inc()
            if self.tracer is not None:
                self.tracer.emit(
                    env.now, "fault", ctx.actor, "retry_fallback",
                    function=task.function,
                )
        yield from self._ppe_fallback(ctx, task)
