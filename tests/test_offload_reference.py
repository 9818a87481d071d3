"""The off-load path's fast paths against slow references.

Four shortcuts sit on the off-load path, and each must be exactly the
computation it skips:

* MGPS counts the dispatches inside a departing task's ``(start, end]``
  window with two bisections of its time-ordered deque; the reference
  scans the whole window, as the history did before;
* ``MFC.transfer_time`` memoizes per ``(nbytes, concurrent)``; the
  reference evaluates the DMA formula on every call, and invalid
  arguments must raise on every call (an error is never memoized);
* ``SPE.load_code`` returns at once when the same image object is
  resident; the reference always runs the key check, the fit/eviction
  loop and the local-store install;
* ``OffloadEngine.offload`` runs the SPE execution inline in the
  dispatching process; the reference starts a process per off-load and
  waits (or spins) on it, paying two kernel events more per blocking
  off-load and one more per spinning one.

Hypothesis drives fast and slow through the same random programs and
requires identical results, float for float.

Faulted off-loads run the same execution body as clean ones, its fault
hooks behind guards.  ``FaultyTwinEngine`` keeps the separate faulty
body and its off-load path as they were; a faulted run must match it on every
output and on its trace once the LLP worker rows, which the twin never
wrote, are dropped.  The twin still holds its SPE through
``SPE.occupy``, whose body the shared execution inlines.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.schedulers
from repro import Tracer, Workload, run_bsp_experiment, run_experiment
from repro.cell.eib import EIB
from repro.cell.local_store import CodeImage, LocalStoreOverflow
from repro.cell.mfc import MFC, legal_transfer_size
from repro.cell.params import BladeParams, CellParams
from repro.cell.spe import SPE
from repro.core.history import UtilizationHistory
from repro.core.runtime import OffloadEngine
from repro.core.schedulers import edtlp, linux, mgps, static_hybrid
from repro.faults import FaultPlan, SlowSPE, SPEKill, TolerancePolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.runview import read_run
from repro.sim.engine import Environment
from repro.workloads import BSPWorkload

KB = 1024


# -- MGPS window count ----------------------------------------------------------

class LinearScanHistory(UtilizationHistory):
    """The history window as it was: a full scan on every departure,
    publishing unconditionally."""

    def note_departure(self, start, end):
        if end < start:
            raise ValueError("departure interval is inverted")
        self.departures += 1
        u = 1 + sum(1 for t in self._dispatch_times if start < t <= end)
        u = max(1, min(u, self.n_spes))
        self._u_samples.append(u)
        self._m_u.observe(u)
        estimate = self.u_estimate
        self._m_u_estimate.set(estimate)
        self._m_window_util.set(estimate / self.n_spes)
        return u


_step = st.sampled_from([0.0, 0.0, 1e-6, 2.5e-6, 1e-5, 1e-3])
_history_op = st.one_of(
    st.tuples(st.just("dispatch"), _step),
    # Departure window: start picked among the recorded dispatch times
    # (ties at ``start``) or between them, end likewise at or after it.
    st.tuples(st.just("depart"), st.integers(0, 300), st.integers(0, 300),
              st.booleans(), st.booleans()),
    st.tuples(st.just("reset")),
    st.tuples(st.just("resize"), st.integers(1, 9)),
)
_history_program = st.fixed_dictionaries({
    "n_spes": st.integers(1, 9),
    "window": st.one_of(st.none(), st.integers(1, 4)),
    "metrics": st.booleans(),
    "ops": st.lists(_history_op, max_size=120),
})


def _run_history(cls, prog):
    metrics = MetricsRegistry() if prog["metrics"] else None
    h = cls(prog["n_spes"], prog["window"], metrics=metrics)
    now = 0.0
    seen = [0.0]  # every dispatch time so far, for tied windows
    out = []
    for op in prog["ops"]:
        if op[0] == "dispatch":
            now += op[1]
            seen.append(now)
            out.append(h.note_dispatch(now))
        elif op[0] == "depart":
            _, i, j, start_mid, end_mid = op
            start = seen[i % len(seen)]
            if start_mid:
                start += 5e-7
            end = max(start, seen[j % len(seen)])
            if end_mid:
                end += 5e-7
            out.append(h.note_departure(start, end))
        elif op[0] == "reset":
            h.reset()
        else:
            h.resize(op[1])
    snap = metrics.snapshot() if metrics is not None else None
    return out, list(h._u_samples), list(h._dispatch_times), h.window, snap


class TestWindowCount:
    @settings(max_examples=300, deadline=None)
    @given(_history_program)
    def test_bisect_count_matches_linear_scan(self, prog):
        fast = _run_history(UtilizationHistory, prog)
        slow = _run_history(LinearScanHistory, prog)
        assert repr(fast) == repr(slow)

    def test_ties_at_both_ends(self):
        for cls in (UtilizationHistory, LinearScanHistory):
            h = cls(n_spes=8, window=2)  # keeps the last 8 dispatch times
            for t in (1.0, 1.0, 2.0, 2.0, 2.0, 3.0):
                h.note_dispatch(t)
            # (1, 2]: the three dispatches at 2.0, not the two at 1.0.
            assert h.note_departure(1.0, 2.0) == 4
            assert h.note_departure(2.0, 2.0) == 1
            assert h.note_departure(0.5, 2.0) == 6
            for t in (4.0, 4.0, 4.0, 4.0):  # evicts both dispatches at 1.0
                h.note_dispatch(t)
            assert h.note_departure(0.5, 2.0) == 4
            assert h.note_departure(2.0, 4.0) == 6


# -- memoized DMA timing -------------------------------------------------------

def uncached_transfer_time(mfc, nbytes, concurrent=1):
    nbytes = legal_transfer_size(nbytes)
    n_req = mfc.n_requests(nbytes)
    bw = mfc.effective_bandwidth(concurrent)
    startup = mfc.params.dma_startup * (1 + 0.2 * (n_req - 1))
    return startup + nbytes / bw


_nbytes = st.one_of(
    st.integers(1, 64),
    st.integers(1, 2048 * 16 * KB),  # up to one full DMA list
    st.sampled_from([16, 16 * KB, 16 * KB + 1, 117 * KB]),
)
_transfer_calls = st.lists(
    st.tuples(_nbytes, st.integers(1, 9)), min_size=1, max_size=60,
)


class TestTransferTime:
    @settings(max_examples=200, deadline=None)
    @given(_transfer_calls, st.booleans())
    def test_memo_matches_uncached_formula(self, calls, with_eib):
        params = CellParams()
        mfc = MFC(params, EIB(params) if with_eib else None)
        for nbytes, concurrent in calls + calls:  # every call again, hot
            got = mfc.transfer_time(nbytes, concurrent)
            assert repr(got) == repr(
                uncached_transfer_time(mfc, nbytes, concurrent)
            )

    @pytest.mark.parametrize("nbytes,concurrent", [
        (0, 1), (-16, 1), (16, 0), (2048 * 16 * KB + 1, 1),
    ])
    def test_errors_raise_on_every_call(self, nbytes, concurrent):
        mfc = MFC(CellParams())
        for _ in range(3):
            with pytest.raises(ValueError):
                mfc.transfer_time(nbytes, concurrent)
        assert mfc._transfer_times == {}
        assert mfc.transfer_time(16, 1) == uncached_transfer_time(mfc, 16, 1)


# -- resident code-image hits -----------------------------------------------------

class FullPathSPE(SPE):
    """``load_code`` without the resident-object shortcut."""

    def load_code(self, image):
        t = self.code_load_time(image)
        while not self.local_store.fits_code(image) and self._resident:
            self._evict_lru()
        moved = self.local_store.load_code(image)
        if moved:
            self.code_loads += 1
        return t


_IMAGES = (
    CodeImage("raxml", "serial", 117 * KB),
    CodeImage("raxml", "llp", 123 * KB),
    CodeImage("raxml", "serial", 117 * KB),   # equal key, another object
    CodeImage("big", "serial", 200 * KB),
)
_spe_op = st.one_of(
    st.tuples(st.just("code"), st.integers(0, len(_IMAGES) - 1)),
    st.tuples(st.just("data"), st.sampled_from("abcde"),
              st.sampled_from([0, 4 * KB, 40 * KB, 100 * KB])),
)


def _run_spe(cls, ops):
    spe = cls(Environment(), CellParams(), 0, 0)
    out = []
    for op in ops:
        try:
            if op[0] == "code":
                out.append(spe.load_code(_IMAGES[op[1]]))
            else:
                out.append(spe.load_data(op[1], op[2]))
        except LocalStoreOverflow as exc:
            out.append(str(exc))
        # Residency by object identity: which of the images is installed.
        image = spe.local_store.code_image
        out.append((
            spe.code_loads, spe.data_evictions, spe.resident_keys,
            next((n for n, i in enumerate(_IMAGES) if i is image), None),
        ))
    return out


class TestResidentCodeHit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_spe_op, max_size=40))
    def test_hit_matches_full_path(self, ops):
        assert repr(_run_spe(SPE, ops)) == repr(_run_spe(FullPathSPE, ops))

    def test_hit_returns_zero_without_eviction(self):
        spe = SPE(Environment(), CellParams(), 0, 0)
        image = _IMAGES[0]
        assert spe.load_code(image) > 0
        spe.load_data("a", 100 * KB)
        assert spe.load_code(image) == 0.0
        assert (spe.code_loads, spe.data_evictions) == (1, 0)
        assert spe.resident_keys == ("a",)
        assert spe.local_store.code_image is image


# -- inline SPE execution ------------------------------------------------------

def _acquire_spe(engine, ctx, task):
    """SPE acquisition as the reference paths had it: one generator that
    takes a free SPE at once or else counts the wait and parks on the
    pool."""
    spe = engine._pick_spe(ctx, task)
    if spe is None:
        engine.stats.offload_waits += 1
        if engine._metrics_on:
            engine._m_waits.inc()
        spe = yield engine.machine.pool.acquire(prefer_cell=ctx.cell_id)
    return spe


class ProcessPerOffloadEngine(OffloadEngine):
    """The off-load path as it was: each SPE execution its own process.

    ``offload`` below is the old body verbatim.  The dispatcher waits on
    the execution's process (blocking) or spins on it (the Linux
    baseline), so each off-load pays the process's start event and its
    done event that the inline path does not.
    """

    def offload(self, ctx, task, trace):
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
                spe = yield from _acquire_spe(self, ctx, task)
                workers = self._acquire_workers(ctx, spe, task)
                if self.tracer is not None:
                    sp.set(spe=spe.name, llp_degree=1 + len(workers))
                release = True
            self.stats.offloads += 1
            if self._metrics_on:
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
            if self._metrics_on:
                self._m_offload_latency.observe((self.env.now - start) * 1e6)
            # Completion handling on the PPE before the process continues
            # (Section 5.2's t_comm bookkeeping on the PPE side).
            yield ctx.thread.run(self.cell.completion_overhead)


_specs = st.one_of(
    st.just(edtlp()),
    st.just(linux()),
    st.builds(static_hybrid, st.integers(2, 8)),
    st.just(mgps()),
)
_runs = st.fixed_dictionaries({
    "spec": _specs,
    "bootstraps": st.integers(1, 4),
    "tasks": st.integers(5, 60),
    "n_cells": st.integers(1, 2),
    "traced": st.booleans(),
})


def _offload_run(case, engine):
    """One blade run with ``engine`` swapped in for ``OffloadEngine``.

    Returns the run's observable outputs and its kernel tallies: events
    in all, and events per calendar lane.
    """
    envs = []

    class Recorded(engine):
        def __init__(self, env, machine, **kwargs):
            envs.append(env)
            super().__init__(env, machine, **kwargs)

    tracer = Tracer() if case["traced"] else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.core.schedulers, "OffloadEngine", Recorded)
        r = run_experiment(
            case["spec"],
            Workload(case["bootstraps"], case["tasks"], seed=0),
            blade=BladeParams(n_cells=case["n_cells"]),
            seed=0, tracer=tracer,
        )
    ks = envs[0].kernel_stats()
    view = (
        repr(r.makespan), repr(r.ppe_occupancy), r.ppe_context_switches,
        r.offloads, r.llp_invocations, r.code_loads, r.result_digest,
        r.bootstrap_digests, tracer.to_jsonl() if tracer else None,
    )
    tallies = (r.events_processed, ks["immediate_events"],
               ks["deferred_events"], ks["heap_events"])
    return r.offloads, view, tallies


def _check_inline_matches_reference(case):
    offloads, fast, fast_tallies = _offload_run(case, OffloadEngine)
    _, slow, slow_tallies = _offload_run(case, ProcessPerOffloadEngine)
    assert fast == slow
    # Each saved event is an immediate-lane one: a blocking off-load
    # skips the execution process's start and done events, a spinning
    # one trades both for the URGENT event its spin waits on.  Nothing
    # moves between the deferred lane and the timed heap.
    saved = offloads * (1 if case["spec"].kind == "linux" else 2)
    events, immediate, deferred, heap = fast_tallies
    assert slow_tallies == (events + saved, immediate + saved, deferred, heap)
    return offloads


class TestInlineExecution:
    @settings(max_examples=100, deadline=None)
    @given(_runs)
    def test_inline_matches_process_per_offload(self, case):
        _check_inline_matches_reference(case)

    @pytest.mark.parametrize("spec", [edtlp(), linux(), mgps()],
                             ids=["edtlp", "linux", "mgps"])
    def test_table1_and_mgps_runs_match(self, spec):
        case = {"spec": spec, "bootstraps": 3, "tasks": 120, "n_cells": 1,
                "traced": True}
        assert _check_inline_matches_reference(case) > 0


# -- one SPE execution body for clean and faulty off-loads ---------------------

def _transfer_time_with_retries(mfc, nbytes, n_errors=0, retry_penalty=1.0):
    """The MFC's retry formula as the faulty twin called it."""
    base = mfc.transfer_time(nbytes)
    if n_errors == 0:
        return base
    return base * (1.0 + retry_penalty * n_errors)


class FaultyTwinEngine(OffloadEngine):
    """The fault-tolerant off-load path as it was: its own execution body.

    ``_spe_exec_faulty`` and ``_offload_tolerant`` below are the old
    bodies verbatim, except that data staging calls the module's copy of
    the MFC retry formula.  The twin never emitted the LLP workers'
    ``task_start``/``task_end`` rows; everything else it did, the shared
    body must do too.
    """

    def _spe_exec_faulty(self, ctx, spe, workers, task, trace, release):
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

        # PPE <-> SPE signal latency, paid at start and at completion.
        signal = self.machine.signal_latency(ctx.cell_id, spe)
        yield env.timeout(signal)
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
            if self._metrics_on:
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
                if self._metrics_on:
                    self._m_data_misses.inc()
                errors = faults.dma_errors(spe, policy.max_dma_retries)
                if errors:
                    self.stats.dma_errors += errors
                yield env.timeout(
                    _transfer_time_with_retries(
                        spe.mfc,
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
                if self._metrics_on:
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
        yield env.timeout(signal)
        return "ok"

    def _offload_tolerant(self, ctx, task, trace, decision):
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
                    workers = []
                    release = False
                else:
                    yield ctx.thread.run(self.cell.dispatch_overhead)
                    spe = yield from _acquire_spe(self, ctx, task)
                    if spe is None:
                        # Capacity exhausted: every SPE dead or blacklisted.
                        break
                    workers = self._acquire_workers(ctx, spe, task)
                    if self.tracer is not None:
                        sp.set(spe=spe.name, llp_degree=1 + len(workers))
                    release = True
                self.stats.offloads += 1
                if self._metrics_on:
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
                    if self._metrics_on:
                        self._m_offload_latency.observe(
                            (env.now - start) * 1e6
                        )
                    yield ctx.thread.run(self.cell.completion_overhead)
                    return
                if status == "watchdog-timeout":
                    self.stats.watchdog_timeouts += 1
                    self._m_watchdog.inc()
                self.stats.offload_retries += 1
                if self._metrics_on:
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


@st.composite
def _faulty_runs(draw):
    n_cells = draw(st.integers(1, 2))
    n_spes = 8 * n_cells
    killed = draw(st.lists(st.integers(0, n_spes - 1), max_size=2,
                           unique=True))
    plan = FaultPlan(
        offload_fail_rate=draw(st.floats(0.0, 0.2, exclude_max=True)),
        dma_error_rate=draw(st.floats(0.0, 0.2, exclude_max=True)),
        spe_kills=tuple(
            SPEKill(spe, draw(st.floats(0.0, 6e-4))) for spe in killed
        ),
        slow_spes=tuple(
            SlowSPE(draw(st.integers(0, n_spes - 1)),
                    draw(st.floats(1.0, 4.0)), draw(st.floats(0.0, 0.5)))
            for _ in range(draw(st.integers(0, 2)))
        ),
        seed=draw(st.integers(0, 3)),
    )
    return {
        "spec": draw(_specs),
        "workload": Workload(draw(st.integers(1, 4)),
                             draw(st.integers(5, 60)), seed=0),
        "n_cells": n_cells,
        "traced": draw(st.booleans()),
        "plan": plan,
    }


def _without(tracer, drop):
    """``tracer``'s JSON Lines without the rows ``drop`` selects."""
    kept = Tracer()
    kept.rows = [row for row in tracer.rows if not drop(row)]
    return kept.to_jsonl()


def _is_worker_row(row):
    return row[4].get("role") == "worker"


def _faulty_run(case, engine):
    """One faulted blade run with ``engine`` swapped in; returns every
    output the fault path can move and the run's tracer."""
    envs = []

    class Recorded(engine):
        def __init__(self, env, machine, **kwargs):
            envs.append(env)
            super().__init__(env, machine, **kwargs)

    tracer = Tracer() if case["traced"] else None
    workload = case["workload"]
    run = (run_bsp_experiment if isinstance(workload, BSPWorkload)
           else run_experiment)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.core.schedulers, "OffloadEngine", Recorded)
        r = run(
            case["spec"], workload,
            blade=BladeParams(n_cells=case["n_cells"]),
            seed=0, tracer=tracer, faults=case["plan"],
            tolerance=case.get("tolerance"),
        )
    ks = envs[0].kernel_stats()
    view = (
        repr(r.makespan), repr(r.ppe_occupancy), r.ppe_context_switches,
        r.offloads, sorted(r.extras.items()), r.result_digest,
        r.bootstrap_digests, r.events_processed, ks["immediate_events"],
        ks["deferred_events"], ks["heap_events"],
    )
    return view, tracer


def _check_faulty_matches_twin(case):
    fast, fast_trace = _faulty_run(case, OffloadEngine)
    slow, slow_trace = _faulty_run(case, FaultyTwinEngine)
    assert fast == slow
    if case["traced"]:
        assert _without(fast_trace, _is_worker_row) == slow_trace.to_jsonl()
        assert not any(_is_worker_row(row) for row in slow_trace.rows)
        read_run(fast_trace)  # every worker row pairs
    return fast_trace


class TestFaultyExecution:
    @settings(max_examples=100, deadline=None)
    @given(_faulty_runs())
    def test_shared_body_matches_faulty_twin(self, case):
        _check_faulty_matches_twin(case)

    @pytest.mark.parametrize("spec", [static_hybrid(4), mgps()],
                             ids=["llp4", "mgps"])
    def test_llp_runs_gain_only_worker_rows(self, spec):
        case = {"spec": spec, "workload": Workload(3, 120, seed=0),
                "n_cells": 1, "traced": True,
                "plan": FaultPlan(offload_fail_rate=0.05,
                                  dma_error_rate=0.05,
                                  spe_kills=(SPEKill(2, 2e-4),))}
        trace = _check_faulty_matches_twin(case)
        assert any(_is_worker_row(row) for row in trace.rows)

    @pytest.mark.parametrize("spec", [edtlp(), mgps()], ids=["edtlp", "mgps"])
    def test_abandoned_transfers_and_watchdog_zombies(self, spec):
        # BSP tasks stage a working set, so data DMA errors occur; no
        # retry budget abandons every erroring transfer, and a tight
        # watchdog abandons the attempts on the slowed SPEs.
        case = {"spec": spec,
                "workload": BSPWorkload(n_processes=8, iterations=3,
                                        tasks_per_iteration=20,
                                        imbalance=2.0, seed=3),
                "n_cells": 1, "traced": True,
                "plan": FaultPlan(dma_error_rate=0.15,
                                  offload_fail_rate=0.05,
                                  spe_kills=(SPEKill(1, 3e-4),),
                                  slow_spes=(SlowSPE(3, 4.0, 0.3),
                                             SlowSPE(5, 3.0))),
                "tolerance": TolerancePolicy(max_dma_retries=0,
                                             timeout_factor=1.0,
                                             timeout_floor=0.0)}
        _check_faulty_matches_twin(case)


_NULL_PLAN_SPECS = [edtlp(), linux(), mgps(), static_hybrid(4)]


def _traced_run(spec, faults=None):
    tracer = Tracer()
    run_experiment(spec, Workload(3, 120, seed=0), seed=0, tracer=tracer,
                   faults=faults)
    return tracer


def _assert_worker_rows_pair(tracer):
    """Every worker ``task_start`` is closed by a worker ``task_end``
    on the same SPE before that SPE starts anything else."""
    open_workers = set()
    for _t, cat, actor, event, p in tracer.rows:
        if cat != "spe":
            continue
        if event == "task_start":
            assert actor not in open_workers
            if p.get("role") == "worker":
                open_workers.add(actor)
        elif event == "task_end" and p.get("role") == "worker":
            open_workers.remove(actor)
    assert not open_workers


class TestNullPlanInvariant:
    @pytest.mark.parametrize(
        "spec", _NULL_PLAN_SPECS,
        ids=["edtlp", "linux", "mgps", "static_hybrid4"],
    )
    def test_null_plan_trace_is_the_fault_free_trace(self, spec):
        clean = _traced_run(spec)
        null = _traced_run(spec, FaultPlan())
        assert _without(null, lambda row: row[3] == "offload_attempt") == (
            clean.to_jsonl()
        )

    def test_master_killed_during_llp_closes_worker_rows(self):
        # Kill the master of the first LLP off-load halfway through it.
        rows = _traced_run(mgps(), FaultPlan()).rows
        t, _, master, _, p = next(
            row for row in rows
            if row[3] == "task_start" and row[4].get("workers")
        )
        index = int(master.rsplit("spe", 1)[1])
        tracer = _traced_run(
            mgps(), FaultPlan(spe_kills=(SPEKill(index, t + p["duration"] / 2),))
        )
        aborts = [row for row in tracer.rows
                  if row[3] == "task_abort" and row[2] == master]
        assert len(aborts) == 1
        assert any(_is_worker_row(row) for row in tracer.rows)
        read_run(tracer)
        _assert_worker_rows_pair(tracer)
